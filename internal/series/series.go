// Package series provides sampled time-series capture and the summary
// metrics the experiment harness reports: extrema, settling time, plateau
// detection, and aggregate statistics such as the geometric mean used for
// cross-workload speedup averages.
package series

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one sample of a scalar signal.
type Point struct {
	T float64 // time in seconds
	V float64 // value in signal units
}

// Series is an append-only sampled signal. Samples must be appended in
// non-decreasing time order.
type Series struct {
	Name   string
	Unit   string
	points []Point
}

// New returns an empty named series.
func New(name, unit string) *Series {
	return &Series{Name: name, Unit: unit}
}

// Append adds a sample. It panics if time regresses, because every producer
// in this repository is a forward-time simulator and a regression indicates
// a simulator bug.
func (s *Series) Append(t, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		panic(fmt.Sprintf("series %q: time went backwards: %g after %g", s.Name, t, s.points[n-1].T))
	}
	s.points = append(s.points, Point{T: t, V: v})
}

// Points returns the underlying samples (shared, not copied).
func (s *Series) Points() []Point { return s.points }

// Last returns the final sample; it panics on an empty series.
func (s *Series) Last() Point { return s.points[len(s.points)-1] }

// Max returns the maximum value and its time.
func (s *Series) Max() (t, v float64) {
	v = math.Inf(-1)
	for _, p := range s.points {
		if p.V > v {
			t, v = p.T, p.V
		}
	}
	return t, v
}

// ValueAt linearly interpolates the signal at time t, clamping beyond the
// sampled range to the boundary values.
func (s *Series) ValueAt(t float64) float64 {
	n := len(s.points)
	if n == 0 {
		return math.NaN()
	}
	if t <= s.points[0].T {
		return s.points[0].V
	}
	if t >= s.points[n-1].T {
		return s.points[n-1].V
	}
	i := sort.Search(n, func(i int) bool { return s.points[i].T > t })
	a, b := s.points[i-1], s.points[i]
	if b.T == a.T {
		return b.V
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.V + (b.V-a.V)*frac
}

// SettleTime returns the earliest time after which the signal stays within
// ±band of the final sampled value until the end of the series. This is the
// metric used for the §5 supply-voltage settling measurements.
func (s *Series) SettleTime(band float64) (float64, bool) {
	n := len(s.points)
	if n == 0 {
		return 0, false
	}
	final := s.points[n-1].V
	settleIdx := 0
	for i := n - 1; i >= 0; i-- {
		if math.Abs(s.points[i].V-final) > band {
			settleIdx = i + 1
			break
		}
	}
	if settleIdx >= n {
		return 0, false
	}
	return s.points[settleIdx].T, true
}

// CSV renders the series as two-column CSV with a header row.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t_s,%s_%s\n", sanitize(s.Name), sanitize(s.Unit))
	for _, p := range s.points {
		fmt.Fprintf(&b, "%.9g,%.9g\n", p.T, p.V)
	}
	return b.String()
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ',', '\n', '\r':
			return '_'
		}
		return r
	}, s)
}

// Quantile returns the nearest-rank q-quantile (0 ≤ q ≤ 1) of an
// ascending-sorted sample: the smallest value with at least ⌈q·n⌉ of the
// samples at or below it, so Quantile(s, 0.95) of 5 samples is the 5th
// value, not the 4th (the floor-of-(n-1)·q indexing this helper replaces
// was biased low for small n). q = 0 returns the minimum, q = 1 the
// maximum; the empty sample returns NaN.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[rank(n, q)]
}

// rank is the index Quantile reads its nearest-rank q-quantile at in an
// ascending-sorted sample of n ≥ 1 values: ⌈q·n⌉ − 1, clamped to the
// sample.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n)))-1, 0), n-1)
}

// SelectQuantiles sets out[i] to Quantile of the sorted sample at qs[i],
// for ascending qs, without sorting vals: it selects the highest rank
// first, then each lower rank within the prefix the selection before it
// left holding the smallest values, in expected linear time overall. It
// reorders vals. vals must be non-empty and hold no NaN; the results are
// bit-identical to sort + Quantile whenever vals holds no −0 (sort does
// not order −0 against +0).
func SelectQuantiles(vals, qs, out []float64) {
	n := len(vals)
	for i := len(qs) - 1; i >= 0; i-- {
		k := rank(n, qs[i])
		out[i] = selectKth(vals, k)
		vals = vals[:k+1]
	}
}

// selectKth returns the k-th smallest of vals (0-based), the value a sort
// would leave at index k, reordering vals so that vals[:k+1] holds the
// k+1 smallest values.
func selectKth(vals []float64, k int) float64 {
	lo, hi := 0, len(vals)-1
	for lo < hi {
		// Hoare partition around the median of three, which splits runs of
		// equal values evenly and keeps sorted input linear.
		a, b, c := vals[lo], vals[lo+(hi-lo)/2], vals[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for vals[i] < pivot {
				i++
			}
			for vals[j] > pivot {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				i++
				j--
			}
		}
		// vals[lo:j+1] ≤ pivot ≤ vals[i:hi+1], and everything between
		// equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return vals[k]
		}
	}
	return vals[k]
}

// Mean returns the arithmetic mean; NaN for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
