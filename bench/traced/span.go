package main

import (
	"runtime"
	"time"
)

// Span is one timed call. Spans nest: Parent is the index of the span that
// was open when this one started, or -1 for a root.
type Span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Parent   int    `json:"parent"`
	StartNs  int64  `json:"start_ns"` // since the pass began
	EndNs    int64  `json:"end_ns"`
	// SelfNs is the span's duration minus its children's.
	SelfNs int64 `json:"self_ns"`
}

// Tracer keeps spans in memory; the pass writes them out when it ends.
type Tracer struct {
	workload string
	t0       time.Time
	spans    []Span
	open     []int
}

func newTracer() *Tracer {
	//sprintvet:ignore nondeterminism spans measure host time
	return &Tracer{t0: time.Now()}
}

//sprintvet:ignore nondeterminism spans measure host time
func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// Span runs fn inside a span named name and returns its duration in
// seconds.
func (t *Tracer) Span(name string, fn func() error) (float64, error) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Workload: t.workload, Parent: parent, StartNs: t.now()})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	err := fn()
	t.spans[i].EndNs = t.now()
	t.open = t.open[:len(t.open)-1]
	return float64(t.spans[i].EndNs-t.spans[i].StartNs) / 1e9, err
}

// alloc is a call's heap allocation: TotalAlloc in MB and Mallocs.
type alloc struct {
	mb, mallocs float64
}

// SpanAlloc is Span that also reports the heap allocated during the call.
// The statistics are read outside the span, so stopping the world to read
// them is not timed.
func (t *Tracer) SpanAlloc(name string, fn func() error) (float64, alloc, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := t.Span(name, fn)
	runtime.ReadMemStats(&after)
	return s, alloc{
		mb:      float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs: float64(after.Mallocs - before.Mallocs),
	}, err
}

// Spans returns every span with its self time filled in.
func (t *Tracer) Spans() []Span {
	out := append([]Span(nil), t.spans...)
	for i := range out {
		out[i].SelfNs += out[i].EndNs - out[i].StartNs
		if p := out[i].Parent; p >= 0 {
			out[p].SelfNs -= out[i].EndNs - out[i].StartNs
		}
	}
	return out
}

// rootS returns the duration in seconds of the workload's root span named
// name, or 0 if it has none.
func (t *Tracer) rootS(workload, name string) float64 {
	for _, s := range t.spans {
		if s.Parent < 0 && s.Workload == workload && s.Name == name {
			return float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	return 0
}
