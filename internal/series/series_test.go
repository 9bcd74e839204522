package series

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func ramp() *Series {
	s := New("ramp", "V")
	for i := 0; i <= 10; i++ {
		s.Append(float64(i), float64(i)*2)
	}
	return s
}

func TestAppendOrderEnforced(t *testing.T) {
	s := New("x", "u")
	s.Append(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on time regression")
		}
	}()
	s.Append(0.5, 0)
}

func TestMinMax(t *testing.T) {
	s := New("temp", "C")
	s.Append(0, 25)
	s.Append(1, 70)
	s.Append(2, 60)
	s.Append(3, 20)
	if tm, v := s.Max(); v != 70 || tm != 1 {
		t.Errorf("Max = (%v,%v), want (1,70)", tm, v)
	}
	if tm, v := s.Min(); v != 20 || tm != 3 {
		t.Errorf("Min = (%v,%v), want (3,20)", tm, v)
	}
}

func TestValueAtInterpolates(t *testing.T) {
	s := ramp()
	if got := s.ValueAt(2.5); got != 5 {
		t.Errorf("ValueAt(2.5) = %v, want 5", got)
	}
	if got := s.ValueAt(-1); got != 0 {
		t.Errorf("ValueAt before start = %v, want clamp 0", got)
	}
	if got := s.ValueAt(99); got != 20 {
		t.Errorf("ValueAt after end = %v, want clamp 20", got)
	}
}

func TestSettleTime(t *testing.T) {
	s := New("v", "V")
	s.Append(0, 1.0)
	s.Append(1, 1.3)  // out of band
	s.Append(2, 1.19) // enters band here
	s.Append(3, 1.2)
	s.Append(4, 1.2)
	ts, ok := s.SettleTime(0.024) // final 1.2, band ±0.024
	if !ok || ts != 2 {
		t.Errorf("SettleTime = (%v,%v), want 2", ts, ok)
	}
}

func TestSettleTimeImmediate(t *testing.T) {
	s := New("v", "V")
	s.Append(0, 1.2)
	s.Append(1, 1.2)
	ts, ok := s.SettleTime(0.01)
	if !ok || ts != 0 {
		t.Errorf("SettleTime = (%v,%v), want 0", ts, ok)
	}
}

func TestCSV(t *testing.T) {
	s := New("volts,raw", "V")
	s.Append(0, 1.5)
	out := s.CSV()
	if !strings.HasPrefix(out, "t_s,volts_raw_V\n") {
		t.Errorf("CSV header = %q", strings.SplitN(out, "\n", 2)[0])
	}
	if !strings.Contains(out, "0,1.5") {
		t.Errorf("CSV body missing sample: %q", out)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

// Property: ValueAt at sample times returns the sampled values exactly, and
// interpolation stays within the local sample bounds.
func TestValueAtProperty(t *testing.T) {
	f := func(raw []float64) bool {
		s := New("p", "u")
		tcur := 0.0
		for _, v := range raw {
			// Restrict to magnitudes where b-a cannot overflow; all signals
			// in this repository are physical quantities far below 1e100.
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				continue
			}
			tcur += 0.5
			s.Append(tcur, v)
		}
		for i := 0; i < len(s.Points()); i++ {
			p := s.Points()[i]
			if s.ValueAt(p.T) != p.V {
				return false
			}
		}
		for i := 1; i < len(s.Points()); i++ {
			a, b := s.Points()[i-1], s.Points()[i]
			mid := s.ValueAt((a.T + b.T) / 2)
			lo, hi := math.Min(a.V, b.V), math.Max(a.V, b.V)
			if mid < lo-1e-9 || mid > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantileNearestRank pins the nearest-rank definition on the small-n
// edge cases that exposed the old floor-biased indexing: the p95 of 5
// samples is the 5th value, not the 4th.
func TestQuantileNearestRank(t *testing.T) {
	five := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{five, 0, 1},
		{five, 0.50, 3},
		{five, 0.95, 5}, // ⌈0.95·5⌉ = 5th value; floor((5-1)·0.95) picked the 4th
		{five, 0.99, 5},
		{five, 1, 5},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.999, 7},
		{[]float64{1, 2}, 0.5, 1},
		{[]float64{1, 2}, 0.51, 2},
		{[]float64{1, 2, 3, 4}, 0.25, 1},
		{[]float64{1, 2, 3, 4}, 0.75, 3},
	}
	for _, c := range cases {
		if got := Quantile(c.sorted, c.q); got != c.want {
			t.Errorf("Quantile(%v, %g) = %g, want %g", c.sorted, c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty sample should return NaN")
	}
}

// TestQuantileMonotone: for a fixed sorted sample the quantile is a
// non-decreasing function of q, and always one of the samples.
func TestQuantileMonotone(t *testing.T) {
	sorted := []float64{0.1, 0.5, 0.9, 2.5, 3, 10, 11}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := Quantile(sorted, q)
		if v < prev {
			t.Fatalf("quantile decreased: q=%.2f gave %g after %g", q, v, prev)
		}
		prev = v
	}
}

// TestSelectQuantilesMatchesSort: SelectQuantiles returns, bit for bit,
// what sort + Quantile returns, for the recorder's window pair (p50,
// p99) and the run summary's four (p50, p95, p99, p999), on random
// samples drawn from a few values (so ties are common) and from a
// continuous range, at sizes 1, 2, 3 and 1000, and keeps every value.
func TestSelectQuantilesMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, qs := range [][]float64{{0.50, 0.99}, {0.50, 0.95, 0.99, 0.999}} {
		for _, n := range []int{1, 2, 3, 1000} {
			for trial := 0; trial < 200; trial++ {
				vals := make([]float64, n)
				for i := range vals {
					if trial%2 == 0 {
						vals[i] = float64(rng.Intn(4)) * 0.25
					} else {
						vals[i] = rng.ExpFloat64()
					}
				}
				sorted := append([]float64(nil), vals...)
				sort.Float64s(sorted)
				got := make([]float64, len(qs))
				SelectQuantiles(vals, qs, got)
				for i, q := range qs {
					if want := Quantile(sorted, q); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("n=%d trial %d: selected q%g = %v, sorted %v", n, trial, q, got[i], want)
					}
				}
				sort.Float64s(vals)
				if !slices.Equal(vals, sorted) {
					t.Fatalf("n=%d trial %d: SelectQuantiles lost or changed values", n, trial)
				}
			}
		}
	}
}
