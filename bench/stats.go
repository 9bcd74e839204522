package main

import "sort"

// summary is one end-to-end metric over a workload's reps: the reported
// value, the median and quartiles it comes with, and every rep's value.
type summary struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Unit   string    `json:"unit"`
	ByMin  bool      `json:"by_min,omitempty"` // Value is the minimum, not the median
	Values []float64 `json:"values"`
}

// summarize reports the median of vals, or their minimum when byMin is
// set. vals must not be empty.
func summarize(vals []float64, unit string, byMin bool) summary {
	q1, med, q3 := quartiles(vals)
	s := summary{Value: med, Median: med, Q1: q1, Q3: q3, N: len(vals), Unit: unit, ByMin: byMin, Values: vals}
	if byMin {
		s.Value = minOf(vals)
	}
	return s
}

// median returns the middle value of vals, or the mean of the middle two.
func median(vals []float64) float64 {
	_, m, _ := quartiles(vals)
	return m
}

// quartiles returns the three cut points dividing vals into four groups,
// computed like Python's statistics.quantiles(vals, n=4) (the default
// "exclusive" method), so the harness and anything scoring its output in
// Python agree on the spread.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), vals...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func minOf(vals []float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		m = min(m, v)
	}
	return m
}
