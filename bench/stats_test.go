package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(vals, n=4) and
	// statistics.median(vals).
	for _, c := range []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2.5, 0.5}, 0, 1.5, 3},
		{[]float64{7, 1, 4, 4, 9, 2, 8}, 2, 4, 8},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, q2, q3 := quartiles(c.vals)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.vals); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.vals, m, c.q2)
		}
	}
}

func TestSummarizeReportsMedianOrMin(t *testing.T) {
	vals := []float64{96, 56.5, 70, 57, 88}
	if s := summarize(vals, "MB", false); s.Value != 70 || s.Median != 70 || s.N != 5 {
		t.Errorf("median summary = %+v, want value and median 70 over 5", s)
	}
	s := summarize(vals, "MB", true)
	if s.Value != 56.5 || s.Median != 70 || !s.ByMin {
		t.Errorf("min summary = %+v, want value 56.5, median 70", s)
	}
	if vals[0] != 96 {
		t.Error("summarize reordered its input")
	}
}
