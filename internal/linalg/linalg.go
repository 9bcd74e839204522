// Package linalg provides the small dense linear-algebra kernel used by the
// transient circuit simulator: LU factorization with partial pivoting and
// the associated triangular solves. Modified-nodal-analysis systems are tens
// of unknowns, so a straightforward O(n³) dense factorization is the right
// tool; the factorization is reused across thousands of timesteps (the MNA
// matrix is constant for a fixed timestep), so Solve cost dominates and is
// O(n²) per step.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorization encounters a pivot that is
// numerically zero, meaning the system has no unique solution.
var ErrSingular = errors.New("linalg: matrix is singular")

// Matrix is a dense row-major square matrix.
type Matrix struct {
	N    int
	Data []float64 // row-major, length N*N
}

// NewMatrix returns an n×n zero matrix.
func NewMatrix(n int) *Matrix {
	if n <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix size %d", n))
	}
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// Add accumulates v into element (i, j); this is the "stamping" operation
// used when assembling MNA matrices.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.N+j] += v }

// LU is an LU factorization with partial pivoting: P·A = L·U, with L unit
// lower triangular and U upper triangular, stored compactly.
type LU struct {
	n    int
	lu   []float64 // packed L (below diagonal) and U (on/above diagonal)
	piv  []int     // row permutation
	sign int       // permutation parity, for determinant
}

// Factor computes the LU factorization of a, leaving a unmodified.
// It returns ErrSingular if a pivot is smaller than the numerical floor.
func Factor(a *Matrix) (*LU, error) {
	n := a.N
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Find pivot row.
		p, maxAbs := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.lu[i*n+k]); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs < 1e-300 {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rowP := f.lu[p*n : (p+1)*n]
			rowK := f.lu[k*n : (k+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
			f.sign = -f.sign
		}
		inv := 1.0 / f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			l := f.lu[i*n+k] * inv
			f.lu[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := f.lu[i*n : (i+1)*n]
			rowK := f.lu[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return f, nil
}

// Solve solves A·x = b using the factorization, writing the solution into x
// (which must have length n). b is not modified; b and x may alias.
func (f *LU) Solve(b, x []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: Solve dimension mismatch: n=%d len(b)=%d len(x)=%d", n, len(b), len(x)))
	}
	// Apply permutation: y = P·b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = b[f.piv[i]]
	}
	// Forward substitution L·z = y (L unit lower triangular).
	for i := 1; i < n; i++ {
		row := f.lu[i*n : i*n+i]
		s := y[i]
		for j, l := range row {
			s -= l * y[j]
		}
		y[i] = s
	}
	// Back substitution U·x = z.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		row := f.lu[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	copy(x, y)
}
