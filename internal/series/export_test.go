package series

import "math"

// Min returns the minimum value and its time.
func (s *Series) Min() (t, v float64) {
	v = math.Inf(1)
	for _, p := range s.points {
		if p.V < v {
			t, v = p.T, p.V
		}
	}
	return t, v
}

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the exact minimum observation; NaN when empty.
func (h *Histogram) Min() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.min
}
