// Streaming latency statistics: a fixed-bin log-scale histogram that
// replaces buffer-and-sort quantile estimation at warehouse scale. The
// fleet simulator records millions of request latencies; buffering every
// sample costs O(n) memory and an O(n log n) sort in finish(), while this
// histogram streams each observation into one of a fixed number of
// logarithmically spaced bins in O(1) with zero steady-state allocation.
//
// The accuracy contract is explicit: Count, Sum, Mean, Min, and Max are
// exact (tracked outside the bins); quantiles are correct to within one
// bin width — with histBinsPerDecade bins per decade the reported
// quantile is at most a factor of 10^(1/histBinsPerDecade) ≈ 1.8% above
// the true nearest-rank value, and never outside [Min, Max]. Callers that
// need exact quantiles (pinned regression tests, small runs) buffer and
// sort instead; the fleet simulator picks per run via its ExactQuantiles
// configuration.
package series

import "math"

const (
	// histMinV and histMaxV bound the binned range; observations outside
	// are clamped into the edge bins (Min/Max stay exact regardless, but
	// quantiles that land in an edge bin degrade to that bin's whole
	// span — the one-bin relative guarantee holds only inside the
	// range). 1 ns .. 1 Ms covers every latency a realistic fleet
	// simulation can produce: queue bound × max work bounds the top, and
	// even a sub-microsecond mean work stays well above the floor.
	histMinV = 1e-9
	histMaxV = 1e6
	// histBinsPerDecade sets the resolution: bin edges grow by
	// 10^(1/128) ≈ 1.0181 per bin, so a quantile is pinned to ≤ 1.81%.
	histBinsPerDecade = 128
	histDecades       = 15 // log10(histMaxV / histMinV)
	histBins          = histBinsPerDecade * histDecades
)

// Histogram is a streaming fixed-bin log-scale summary of a positive
// scalar sample (latencies in this repository). The zero value is NOT
// ready; use NewHistogram.
type Histogram struct {
	counts [histBins]uint64
	n      uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram returns an empty histogram covering [1e-9, 1e6) with 128
// bins per decade.
func NewHistogram() *Histogram {
	return &Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// histBin maps a value to its bin index, clamping outside the covered
// range into the edge bins.
func histBin(v float64) int {
	if v <= histMinV {
		return 0
	}
	b := int(math.Log10(v/histMinV) * histBinsPerDecade)
	if b < 0 {
		b = 0
	}
	if b >= histBins {
		b = histBins - 1
	}
	return b
}

// histEdge returns the upper edge of bin b.
func histEdge(b int) float64 {
	return histMinV * math.Pow(10, float64(b+1)/histBinsPerDecade)
}

// Observe streams one sample into the histogram in O(1).
func (h *Histogram) Observe(v float64) {
	h.counts[histBin(v)]++
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int { return int(h.n) }

// Mean returns the exact arithmetic mean; NaN when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// Max returns the exact maximum observation; NaN when empty.
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.max
}

// Quantile returns the q-quantile under the same nearest-rank convention
// as Quantile on a sorted sample: the upper edge of the bin holding the
// ⌈q·n⌉-th observation, clamped to [Min, Max]. The result is within one
// bin width (≤ 1.81% relative) of the exact nearest-rank value and is
// monotone in q; the empty histogram returns NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for b := 0; b < histBins; b++ {
		cum += h.counts[b]
		if cum >= rank {
			v := histEdge(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max // unreachable: cum reaches n at the last occupied bin
}
