package workloads

import (
	"fmt"

	"sprinting/internal/isa"
	"sprinting/internal/rt"
)

// Segment parameters: intensity classes for the per-pixel classification
// and the minimum class population (classes smaller than minFrac of the
// image merge into their nearest neighbour class).
const (
	segClasses = 6
	segMinFrac = 0.02
)

// BuildSegment constructs the segment kernel — image feature
// classification adapted from SD-VBS: (1) a fully parallel per-pixel
// classification against class centres, (2) a two-task histogram
// reduction, (3) a serial merge/relabel of under-populated classes over
// the affected pixels. The later stages' limited task counts are what caps
// segment's scaling (the paper reports 6.6× at 16 cores, §8.6).
func BuildSegment(p Params) *Instance {
	p = p.withDefaults()
	// 6× base sizes for runtimes comparable to the other kernels.
	w, h := sizePixels(megapixelsFor(p.Size, p.Scale) * 6)
	space := isa.NewAddressSpace(64)
	img := NewImageU8(space, w, h)
	FillScene(img, SceneNatural, p.Seed)

	gs := &segState{
		img:    img,
		labels: NewImageU8(space, w, h),
	}
	for k := 0; k < segClasses; k++ {
		gs.centers[k] = uint8(255 * (2*k + 1) / (2 * segClasses))
	}
	gs.histBase = space.Alloc(uint64(2 * segClasses * 8))
	gs.remapBase = space.Alloc(uint64(segClasses * 4))

	classifyTasks := rt.ShardStreams("classify", h, p.Shards, func(lo, hi int) isa.Stream {
		return &segClassifyShard{gs: gs, y: lo, yEnd: hi}
	})
	histTasks := []rt.Task{
		{Name: "hist[0]", Stream: &segHistShard{gs: gs, half: 0}},
		{Name: "hist[1]", Stream: &segHistShard{gs: gs, half: 1}},
	}
	relabelTasks := []rt.Task{{Name: "relabel", Stream: &segRelabelShard{gs: gs}}}

	prog := rt.Program{Name: "segment", Phases: []rt.Phase{
		{Name: "classify", Tasks: classifyTasks},
		{Name: "histogram", Tasks: histTasks},
		{Name: "merge-relabel", Tasks: relabelTasks},
	}}

	inst := &Instance{
		Kernel:    "segment",
		Detail:    fmt.Sprintf("%s, %d classes", fmtDims(w, h), segClasses),
		Program:   prog,
		Space:     space,
		WorkItems: w * h,
	}
	inst.Verify = func() error { return gs.verify() }
	return inst
}

type segState struct {
	img     *ImageU8
	labels  *ImageU8
	centers [segClasses]uint8

	hist     [2][segClasses]int64
	histBase uint64

	remap     [segClasses]uint8
	remapBase uint64
}

// classify is the real per-pixel nearest-centre classification.
func (gs *segState) classify(v uint8) uint8 {
	best, bestDist := 0, 1<<30
	for k := 0; k < segClasses; k++ {
		d := int(v) - int(gs.centers[k])
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = k, d
		}
	}
	return uint8(best)
}

// segClassifyShard labels rows [y, yEnd).
type segClassifyShard struct {
	gs      *segState
	y, yEnd int
	x       int
}

func (s *segClassifyShard) Next(buf []isa.Instr) int {
	gs := s.gs
	w := gs.img.W
	e := isa.NewEmitter(buf)
	const perPixel = 4
	for s.y < s.yEnd {
		if len(buf)-e.Len() < perPixel {
			return e.Len()
		}
		x, y := s.x, s.y
		s.x++
		if s.x >= w {
			s.x = 0
			s.y++
		}
		v := gs.img.At(x, y)
		e.Load(gs.img.Addr(x, y))
		gs.labels.Set(x, y, gs.classify(v))
		// Distance scan over segClasses centres (register resident).
		e.Compute(uint32(4 * segClasses))
		e.Store(gs.labels.Addr(x, y))
	}
	return e.Len()
}

// segHistShard tallies label populations over half the image.
type segHistShard struct {
	gs        *segState
	half      int
	idx       int
	init      bool
	published bool
}

func (s *segHistShard) Next(buf []isa.Instr) int {
	gs := s.gs
	n := gs.labels.W * gs.labels.H
	lo, hi := s.half*n/2, (s.half+1)*n/2
	if !s.init {
		s.idx = lo
		s.init = true
	}
	e := isa.NewEmitter(buf)
	for s.idx < hi {
		if len(buf)-e.Len() < 3 {
			return e.Len()
		}
		i := s.idx
		s.idx++
		gs.hist[s.half][gs.labels.Pix[i]]++
		e.Load(gs.labels.Base + uint64(i))
		e.Compute(2)
	}
	// Publish this half's histogram exactly once.
	if !s.published && len(buf)-e.Len() >= segClasses {
		for k := 0; k < segClasses; k++ {
			e.Store(gs.histBase + uint64((s.half*segClasses+k)*8))
		}
		s.published = true
	}
	return e.Len()
}

// segRelabelShard merges under-populated classes into their nearest
// neighbour class and relabels affected pixels — the serial tail.
type segRelabelShard struct {
	gs   *segState
	idx  int
	init bool
}

func (s *segRelabelShard) Next(buf []isa.Instr) int {
	gs := s.gs
	e := isa.NewEmitter(buf)
	if !s.init {
		s.init = true
		// Compute the merge map (real) and emit its accesses.
		n := int64(gs.labels.W * gs.labels.H)
		minPop := int64(float64(n) * segMinFrac)
		for k := 0; k < segClasses; k++ {
			gs.remap[k] = uint8(k)
			pop := gs.hist[0][k] + gs.hist[1][k]
			e.Load(gs.histBase + uint64(k*8))
			e.Load(gs.histBase + uint64((segClasses+k)*8))
			if pop >= minPop {
				continue
			}
			// Merge into the nearest populated neighbour centre.
			bestK, bestD := k, 1<<30
			for j := 0; j < segClasses; j++ {
				if j == k || gs.hist[0][j]+gs.hist[1][j] < minPop {
					continue
				}
				d := int(gs.centers[k]) - int(gs.centers[j])
				if d < 0 {
					d = -d
				}
				if d < bestD {
					bestK, bestD = j, d
				}
			}
			gs.remap[k] = uint8(bestK)
		}
		e.Compute(uint32(6 * segClasses))
		for k := 0; k < segClasses; k++ {
			e.Store(gs.remapBase + uint64(k*4))
		}
		return e.Len()
	}
	// Relabel pass over a third of the pixels (the scan restricted to
	// regions whose labels may have merged).
	n := gs.labels.W * gs.labels.H
	for s.idx < n {
		if len(buf)-e.Len() < 4 {
			return e.Len()
		}
		i := s.idx
		s.idx += 3
		l := gs.labels.Pix[i]
		e.Load(gs.labels.Base + uint64(i))
		e.Compute(2)
		if gs.remap[l] != l {
			gs.labels.Pix[i] = gs.remap[l]
			e.Store(gs.labels.Base + uint64(i))
		}
	}
	return e.Len()
}

// verify checks sampled labels: every pixel's label must be the remap of
// its nearest class centre, and populous classes keep their identity.
func (gs *segState) verify() error {
	w, h := gs.img.W, gs.img.H
	step := w*h/500 + 1
	for i := 0; i < w*h; i += step {
		x, y := i%w, i/w
		base := gs.classify(gs.img.At(x, y))
		want := base
		// Pixels in the relabel scan (every 3rd index) reflect the merge
		// map; others keep their original class.
		if i%3 == 0 {
			want = gs.remap[base]
		}
		got := gs.labels.At(x, y)
		if got != want && got != base {
			return fmt.Errorf("segment: pixel (%d,%d) label %d, want %d (base %d)", x, y, got, want, base)
		}
	}
	return nil
}
