// Package isa defines the abstract instruction stream executed by the
// many-core simulator (§8.1). The paper models in-order x86 cores with a
// CPI of one plus cache-miss penalties; at that fidelity the semantics of
// individual arithmetic ops are irrelevant — what matters is how many
// single-cycle ops run between memory references, and which addresses those
// references touch. The ISA is therefore four kinds:
//
//   - Compute: a run of N back-to-back single-cycle ALU ops (run-length
//     encoded so the simulator advances N cycles in one event),
//   - Load / Store: a memory reference with a concrete 64-bit address,
//     emitted by the real kernel implementations so cache behaviour tracks
//     genuine access patterns,
//   - Pause: the x86 PAUSE the §8.1 runtime inserts on barriers, lock
//     spins, and failed task-steal attempts; the hardware puts the core to
//     sleep for 1000 cycles at 10% dynamic power.
//
// Streams are pull-based resumable generators so multi-billion-instruction
// workloads never materialize in memory.
package isa

import "fmt"

// Kind discriminates instruction types.
type Kind uint8

// Instruction kinds.
const (
	Compute Kind = iota // N single-cycle ALU ops
	Load                // memory read of Addr
	Store               // memory write of Addr
	Pause               // PAUSE: sleep 1000 cycles at 10% power
)

// String returns the mnemonic.
func (k Kind) String() string {
	switch k {
	case Compute:
		return "compute"
	case Load:
		return "load"
	case Store:
		return "store"
	case Pause:
		return "pause"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Instr is one instruction (or a coalesced run of Compute ops).
type Instr struct {
	Kind Kind
	// N is the run length for Compute (≥1); ignored otherwise.
	N uint32
	// Addr is the byte address for Load/Store.
	Addr uint64
}

// Stream is a resumable instruction generator. Next fills buf with up to
// len(buf) instructions and returns how many were produced; 0 means the
// stream is exhausted. Implementations must be pure state machines: no
// goroutines, deterministic output.
type Stream interface {
	Next(buf []Instr) int
}

// SliceStream replays a fixed instruction slice, for tests that drive a
// scheduler or machine with a known instruction mix.
type SliceStream struct {
	Instrs []Instr
	pos    int
}

// Next implements Stream.
func (s *SliceStream) Next(buf []Instr) int {
	n := copy(buf, s.Instrs[s.pos:])
	s.pos += n
	return n
}

// Emitter is a convenience for kernel state machines: it wraps the caller's
// buffer and exposes typed append operations, coalescing adjacent Compute
// runs automatically.
type Emitter struct {
	buf []Instr
	n   int
}

// NewEmitter wraps buf for filling.
func NewEmitter(buf []Instr) *Emitter { return &Emitter{buf: buf} }

// Len returns the number of instructions emitted so far.
func (e *Emitter) Len() int { return e.n }

// Compute appends n ALU ops, coalescing with a preceding Compute entry.
func (e *Emitter) Compute(n uint32) {
	if n == 0 {
		return
	}
	if e.n > 0 && e.buf[e.n-1].Kind == Compute {
		e.buf[e.n-1].N += n
		return
	}
	e.buf[e.n] = Instr{Kind: Compute, N: n}
	e.n++
}

// Load appends a load of addr.
func (e *Emitter) Load(addr uint64) {
	e.buf[e.n] = Instr{Kind: Load, Addr: addr}
	e.n++
}

// Store appends a store to addr.
func (e *Emitter) Store(addr uint64) {
	e.buf[e.n] = Instr{Kind: Store, Addr: addr}
	e.n++
}

// AddressSpace is a bump allocator for the simulated flat physical address
// space. Regions are cache-line aligned so distinct buffers never share
// lines.
type AddressSpace struct {
	next uint64
	line uint64
}

// NewAddressSpace returns an allocator starting at a non-zero base with the
// given line size.
func NewAddressSpace(lineBytes int) *AddressSpace {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("isa: line size must be a positive power of two, got %d", lineBytes))
	}
	return &AddressSpace{next: 1 << 20, line: uint64(lineBytes)}
}

// Alloc reserves n bytes and returns the base address.
func (a *AddressSpace) Alloc(n uint64) uint64 {
	if n == 0 {
		n = 1
	}
	base := a.next
	a.next += (n + a.line - 1) / a.line * a.line
	return base
}
