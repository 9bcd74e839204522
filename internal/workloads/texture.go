package workloads

import (
	"fmt"

	"sprinting/internal/isa"
	"sprinting/internal/rt"
)

// Texture parameters: number of composited layers and the task-parallelism
// cap (texture is the Table 1 "image composition" kernel; the paper finds
// it limited by available parallelism beyond ~nominal core counts, §8.5).
const (
	texLayers   = 4
	texMaxTasks = 12
)

// BuildTexture constructs the texture kernel: composition of translucent,
// offset layers onto a canvas, one barrier phase per layer (each layer
// blends over the previous result), with task counts capped at texMaxTasks
// — composition pipelines split work by output tile, and tile counts, not
// pixels, bound the parallelism.
func BuildTexture(p Params) *Instance {
	p = p.withDefaults()
	// 4× base sizes keep texture's runtime comparable to the heavier
	// kernels despite its cheap per-pixel blend.
	w, h := sizePixels(megapixelsFor(p.Size, p.Scale) * 4)
	space := isa.NewAddressSpace(64)

	ts := &texState{canvas: NewImageU8(space, w, h)}
	for l := 0; l < texLayers; l++ {
		layer := NewImageU8(space, w, h)
		FillScene(layer, SceneNatural, p.Seed+int64(l)*77)
		ts.layers = append(ts.layers, layer)
		ts.offsets = append(ts.offsets, [2]int{(l * 13) % 32, (l * 7) % 24})
		ts.alphas = append(ts.alphas, uint32(96+32*l%128))
	}

	shards := p.Shards
	if shards > texMaxTasks {
		shards = texMaxTasks
	}
	prog := rt.Program{Name: "texture"}
	for l := 0; l < texLayers; l++ {
		l := l
		tasks := rt.ShardStreams(fmt.Sprintf("layer%d", l), h, shards, func(lo, hi int) isa.Stream {
			return &texBlendShard{ts: ts, layer: l, y: lo, yEnd: hi}
		})
		prog.Phases = append(prog.Phases, rt.Phase{Name: fmt.Sprintf("compose-%d", l), Tasks: tasks})
	}
	// Final tone-map over a sparse sample is a single-task (serial) pass,
	// the composition pipeline's gather step.
	prog.Phases = append(prog.Phases, rt.Phase{Name: "tonemap", Tasks: []rt.Task{{
		Name:   "tonemap",
		Stream: &texToneShard{ts: ts},
	}}})

	inst := &Instance{
		Kernel:    "texture",
		Detail:    fmt.Sprintf("%s, %d layers", fmtDims(w, h), texLayers),
		Program:   prog,
		Space:     space,
		WorkItems: w * h,
	}
	inst.Verify = func() error { return ts.verify() }
	return inst
}

type texState struct {
	canvas  *ImageU8
	layers  []*ImageU8
	offsets [][2]int
	alphas  []uint32

	toneN int
}

// blendPixel is the real composition arithmetic, shared with verification.
func (ts *texState) blendPixel(prev uint8, layer, x, y int) uint8 {
	im := ts.layers[layer]
	sx := (x + ts.offsets[layer][0]) % im.W
	sy := (y + ts.offsets[layer][1]) % im.H
	a := ts.alphas[layer]
	v := (uint32(prev)*(256-a) + uint32(im.At(sx, sy))*a) >> 8
	return uint8(v)
}

// texBlendShard blends one layer into the canvas over rows [y, yEnd).
type texBlendShard struct {
	ts      *texState
	layer   int
	y, yEnd int
	x       int
}

func (s *texBlendShard) Next(buf []isa.Instr) int {
	ts := s.ts
	w := ts.canvas.W
	e := isa.NewEmitter(buf)
	const perPixel = 5
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
		im := ts.layers[s.layer]
		sx := (x + ts.offsets[s.layer][0]) % im.W
		sy := (y + ts.offsets[s.layer][1]) % im.H
		prev := ts.canvas.At(x, y)
		e.Load(ts.canvas.Addr(x, y))
		e.Load(im.Addr(sx, sy))
		ts.canvas.Set(x, y, ts.blendPixel(prev, s.layer, x, y))
		e.Compute(7)
		e.Store(ts.canvas.Addr(x, y))
	}
	return e.Len()
}

// texToneShard is the serial gather: a sparse luminance sum used for the
// final tone curve.
type texToneShard struct {
	ts  *texState
	idx int
}

func (s *texToneShard) Next(buf []isa.Instr) int {
	ts := s.ts
	n := ts.canvas.W * ts.canvas.H
	e := isa.NewEmitter(buf)
	for s.idx < n {
		if len(buf)-e.Len() < 3 {
			return e.Len()
		}
		i := s.idx
		s.idx += 8 // sparse: every 8th pixel
		ts.toneN++
		e.Load(ts.canvas.Base + uint64(i))
		e.Compute(3)
	}
	return e.Len()
}

// verify recomputes sampled canvas pixels through the full layer stack.
func (ts *texState) verify() error {
	w, h := ts.canvas.W, ts.canvas.H
	step := w*h/500 + 1
	for i := 0; i < w*h; i += step {
		x, y := i%w, i/w
		var want uint8
		for l := 0; l < texLayers; l++ {
			want = ts.blendPixel(want, l, x, y)
		}
		if got := ts.canvas.At(x, y); got != want {
			return fmt.Errorf("texture: pixel (%d,%d) = %d, want %d", x, y, got, want)
		}
	}
	if ts.toneN == 0 {
		return fmt.Errorf("texture: tonemap pass did not run")
	}
	return nil
}
