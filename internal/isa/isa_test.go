package isa

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Compute: "compute", Load: "load", Store: "store", Pause: "pause", Kind(9): "kind(9)"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestSliceStream(t *testing.T) {
	src := []Instr{{Kind: Compute, N: 3}, {Kind: Load, Addr: 64}, {Kind: Store, Addr: 128}}
	s := &SliceStream{Instrs: src}
	buf := make([]Instr, 2)
	if n := s.Next(buf); n != 2 {
		t.Fatalf("first Next = %d, want 2", n)
	}
	if n := s.Next(buf); n != 1 || buf[0].Kind != Store {
		t.Fatalf("second Next = %d, want 1 store", n)
	}
	if n := s.Next(buf); n != 0 {
		t.Fatalf("exhausted Next = %d, want 0", n)
	}
	s.Reset()
	if n := s.Next(buf); n != 2 {
		t.Fatalf("after Reset Next = %d, want 2", n)
	}
}

func TestDrainCounts(t *testing.T) {
	s := &SliceStream{Instrs: []Instr{
		{Kind: Compute, N: 10},
		{Kind: Load, Addr: 0},
		{Kind: Compute, N: 5},
		{Kind: Store, Addr: 64},
		{Kind: Pause, N: 1},
	}}
	c := Drain(s)
	if c.ComputeOps != 15 || c.Loads != 1 || c.Stores != 1 || c.Pauses != 1 {
		t.Errorf("Drain = %+v", c)
	}
	if c.Instructions() != 18 {
		t.Errorf("Instructions = %d, want 18", c.Instructions())
	}
}

func TestEmitterCoalescesCompute(t *testing.T) {
	buf := make([]Instr, 8)
	e := NewEmitter(buf)
	e.Compute(3)
	e.Compute(4)
	e.Load(100)
	e.Compute(2)
	if e.Len() != 3 {
		t.Fatalf("emitted %d instrs, want 3 (coalesced)", e.Len())
	}
	if buf[0].N != 7 {
		t.Errorf("coalesced run = %d, want 7", buf[0].N)
	}
	if buf[2].Kind != Compute || buf[2].N != 2 {
		t.Errorf("post-load compute not separate: %+v", buf[2])
	}
}

func TestEmitterZeroCompute(t *testing.T) {
	e := NewEmitter(make([]Instr, 4))
	e.Compute(0)
	if e.Len() != 0 {
		t.Error("zero-length compute should emit nothing")
	}
}

func TestEmitterFull(t *testing.T) {
	e := NewEmitter(make([]Instr, 2))
	e.Load(0)
	if e.Full() {
		t.Error("not full after 1 of 2")
	}
	e.Store(64)
	if !e.Full() {
		t.Error("full after 2 of 2")
	}
}

func TestAddressSpaceAlignment(t *testing.T) {
	a := NewAddressSpace(64)
	b1 := a.Alloc(100)
	b2 := a.Alloc(1)
	if b1%64 != 0 || b2%64 != 0 {
		t.Errorf("allocations not line aligned: %d, %d", b1, b2)
	}
	if b2-b1 < 100 {
		t.Errorf("regions overlap: %d then %d", b1, b2)
	}
	if b2-b1 != 128 {
		t.Errorf("100 bytes should round to 2 lines, gap = %d", b2-b1)
	}
}

func TestAddressSpaceZeroAlloc(t *testing.T) {
	a := NewAddressSpace(64)
	b1 := a.Alloc(0)
	b2 := a.Alloc(0)
	if b1 == b2 {
		t.Error("zero-size allocations must still be distinct")
	}
}

func TestAddressSpaceBadLine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two line")
		}
	}()
	NewAddressSpace(48)
}

// Property: allocations never overlap and are monotonically increasing.
func TestAddressSpaceNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewAddressSpace(64)
		prevEnd := uint64(0)
		for _, sz := range sizes {
			base := a.Alloc(uint64(sz))
			if base < prevEnd {
				return false
			}
			prevEnd = base + uint64(sz)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Drain(stream) sees exactly what the emitter wrote, regardless of
// buffer-boundary splits.
func TestEmitterDrainRoundTrip(t *testing.T) {
	f := func(ops []uint8) bool {
		buf := make([]Instr, len(ops)+1)
		e := NewEmitter(buf)
		var wantCompute, wantLoads, wantStores uint64
		for i, op := range ops {
			switch op % 3 {
			case 0:
				n := uint32(op)/3 + 1
				e.Compute(n)
				wantCompute += uint64(n)
			case 1:
				e.Load(uint64(i) * 64)
				wantLoads++
			case 2:
				e.Store(uint64(i) * 64)
				wantStores++
			}
		}
		got := Drain(&SliceStream{Instrs: buf[:e.Len()]})
		return got.ComputeOps == wantCompute && got.Loads == wantLoads && got.Stores == wantStores
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
