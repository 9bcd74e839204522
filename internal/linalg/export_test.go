package linalg

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// MulVec computes y = M·x. The destination may not alias x.
func (m *Matrix) MulVec(x, y []float64) {
	n := m.N
	for i := 0; i < n; i++ {
		row := m.Data[i*n : (i+1)*n]
		s := 0.0
		for j, r := range row {
			s += r * x[j]
		}
		y[i] = s
	}
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu[i*f.n+i]
	}
	return d
}

// SolveDense is a convenience that factors a and solves a single system.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, a.N)
	f.Solve(b, x)
	return x, nil
}
