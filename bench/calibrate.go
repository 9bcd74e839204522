package main

import (
	"container/heap"
	"time"
)

// The sandbox's speed drifts by a quarter over minutes, and every workload
// drifts with it: in one measured stretch, the medians of back-to-back
// 15 s windows of a fleetsim run spread 17% between their quartiles while
// the same windows' ratios to a calibration loop spread 6%. So each run
// times calibrate beside its commands, and reports its times in seconds
// at the reference speed: raw times scaled by calibrationRefS over the
// run's median calibration time.
const (
	// calibrationRefS is how long calibrate takes at the reference speed,
	// about its median on the 2-CPU container the bounds were set on.
	calibrationRefS = 0.1
	calHeap         = 100_000
	calOps          = 250_000

	// A run calibrates for calibrationLeadS before its set-up runs and then
	// for calibrationShare of the time its reps take. The calibration's
	// median is as noisy as the reps' unless it gets a fair share of the
	// run: in the stretch above, calibrating for 2–5% of each window left
	// the ratios spreading 8–14%, for 10–20% of it 5–7%.
	calibrationLeadS = 0.5
	calibrationShare = 0.25
)

type floatHeap []float64

func (h floatHeap) Len() int           { return len(h) }
func (h floatHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calibrate does a fixed amount of work shaped like an event loop's, pushes
// and pops of float keys on a binary heap, and returns its wall time. The
// work is the same at every commit, so only the host's speed moves it.
func calibrate() float64 {
	h := make(floatHeap, 0, calHeap)
	x := uint64(88172645463325252)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x % 1_000_000)
	}
	//sprintvet:ignore nondeterminism the calibration measures host speed
	start := time.Now()
	for range calHeap {
		heap.Push(&h, next())
	}
	for range calOps {
		heap.Push(&h, heap.Pop(&h).(float64)+next())
	}
	//sprintvet:ignore nondeterminism the calibration measures host speed
	return time.Since(start).Seconds()
}
