// Package mem implements the §8.1 memory system: per-core private L1
// caches, a shared inclusive last-level cache (LLC) with a co-located
// directory running an invalidation-based MESI protocol, and a dual-channel
// bandwidth-limited memory interface.
//
// Timing follows the paper: L1 hits are folded into the CPI=1 pipeline,
// LLC hits cost 20 cycles, memory is 60 ns round-trip uncontended with
// 4 GB/s per channel. All latencies are reported in picoseconds so cores
// running at boosted (DVFS) clocks compose correctly with a fixed-speed
// uncore.
package mem

import (
	"fmt"
)

// Config describes the hierarchy geometry and timing.
type Config struct {
	LineBytes int

	L1Bytes int
	L1Ways  int

	LLCBytes    int
	LLCWays     int
	LLCHitPs    uint64 // LLC hit (and L1-miss) penalty
	CoherencePs uint64 // extra penalty for a dirty remote hit or upgrade

	MemLatencyPs       uint64 // uncontended round trip
	MemChannels        int
	ChannelBytesPerSec float64
}

// DefaultConfig returns the paper's §8.1 memory system: 32 KB 8-way L1s,
// 4 MB 16-way shared LLC with 20-cycle hits, dual-channel memory at 4 GB/s
// per channel and 60 ns uncontended latency.
func DefaultConfig() Config {
	return Config{
		LineBytes: 64,

		L1Bytes: 32 << 10,
		L1Ways:  8,

		LLCBytes:    4 << 20,
		LLCWays:     16,
		LLCHitPs:    20_000, // 20 cycles @ 1 GHz
		CoherencePs: 20_000,

		MemLatencyPs:       60_000, // 60 ns
		MemChannels:        2,
		ChannelBytesPerSec: 4e9,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: line size must be a power of two, got %d", c.LineBytes)
	case c.L1Bytes <= 0 || c.L1Ways <= 0 || c.L1Bytes%(c.LineBytes*c.L1Ways) != 0:
		return fmt.Errorf("mem: L1 geometry invalid (%dB, %d ways)", c.L1Bytes, c.L1Ways)
	case c.LLCBytes <= 0 || c.LLCWays <= 0 || c.LLCBytes%(c.LineBytes*c.LLCWays) != 0:
		return fmt.Errorf("mem: LLC geometry invalid (%dB, %d ways)", c.LLCBytes, c.LLCWays)
	case c.MemChannels <= 0:
		return fmt.Errorf("mem: need at least one memory channel")
	case c.ChannelBytesPerSec <= 0:
		return fmt.Errorf("mem: channel bandwidth must be positive")
	}
	return nil
}

// line states for the MESI protocol.
type state uint8

const (
	invalid   state = iota
	shared          // clean, possibly multiple sharers
	exclusive       // clean, single owner
	modified        // dirty, single owner
)

// l1Line is one private-cache line.
type l1Line struct {
	tag   uint64
	state state
	lru   uint32
}

// llcLine is one shared-cache line with its directory entry.
type llcLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lru     uint32
	sharers uint64 // bitmask of cores with the line in L1
	owner   int8   // core holding it M/E, or -1
}

// Level identifies the deepest level an access reached, for energy
// accounting.
type Level uint8

// Access levels.
const (
	LevelL1 Level = iota
	LevelLLC
	LevelDRAM
)

// Stats counts hierarchy events.
type Stats struct {
	L1Hits        uint64
	L1Misses      uint64
	LLCHits       uint64
	LLCMisses     uint64
	Invalidations uint64 // L1 copies killed by coherence
	Writebacks    uint64 // dirty lines written toward memory
	DRAMBytes     uint64
	DRAMQueuePs   uint64 // cumulative queueing delay at the channels
}

// Hierarchy is the full memory system shared by all cores. It is not safe
// for concurrent use: the simulator is single-threaded and deterministic.
type Hierarchy struct {
	cfg Config

	lineShift uint

	// l1s[core][set*ways+way]
	l1s    [][]l1Line
	l1Sets int
	l1Mask uint64

	llc     []llcLine
	llcSets int
	llcMask uint64

	// channel occupancy: the cycle each channel next becomes free.
	chanFreePs []uint64
	linePs     uint64 // service time per line transfer per channel

	lruTick uint32

	Stats Stats
}

// New builds the hierarchy for n cores.
func New(cfg Config, nCores int) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nCores <= 0 || nCores > 64 {
		return nil, fmt.Errorf("mem: core count %d outside [1,64] (directory uses a 64-bit sharer mask)", nCores)
	}
	h := &Hierarchy{cfg: cfg}
	for s := cfg.LineBytes; s > 1; s >>= 1 {
		h.lineShift++
	}
	h.l1Sets = cfg.L1Bytes / (cfg.LineBytes * cfg.L1Ways)
	h.l1Mask = uint64(h.l1Sets - 1)
	h.l1s = make([][]l1Line, nCores)
	for i := range h.l1s {
		h.l1s[i] = make([]l1Line, h.l1Sets*cfg.L1Ways)
	}
	h.llcSets = cfg.LLCBytes / (cfg.LineBytes * cfg.LLCWays)
	h.llcMask = uint64(h.llcSets - 1)
	h.llc = make([]llcLine, h.llcSets*cfg.LLCWays)
	h.chanFreePs = make([]uint64, cfg.MemChannels)
	h.linePs = uint64(float64(cfg.LineBytes) / cfg.ChannelBytesPerSec * 1e12)
	return h, nil
}

// Access performs a load or store by core at time nowPs and returns the
// extra latency in picoseconds beyond the 1-cycle pipeline slot (0 for an
// L1 hit, per the paper's CPI-1-plus-miss-penalties model), along with the
// deepest level reached for energy accounting.
func (h *Hierarchy) Access(core int, addr uint64, write bool, nowPs uint64) (uint64, Level) {
	h.lruTick++
	lineAddr := addr >> h.lineShift
	set := int(lineAddr & h.l1Mask)
	ways := h.cfg.L1Ways
	lines := h.l1s[core][set*ways : (set+1)*ways]

	// L1 lookup.
	for i := range lines {
		l := &lines[i]
		if l.state != invalid && l.tag == lineAddr {
			if write && l.state == shared {
				// Upgrade: invalidate other sharers via the directory.
				h.Stats.L1Hits++
				lat := h.upgrade(core, lineAddr)
				l.state = modified
				l.lru = h.lruTick
				return lat, LevelLLC
			}
			if write {
				l.state = modified
			}
			l.lru = h.lruTick
			h.Stats.L1Hits++
			return 0, LevelL1
		}
	}
	h.Stats.L1Misses++

	// Miss: fetch through the LLC/directory.
	lat, level := h.fetch(core, lineAddr, write, nowPs)

	// Install in L1, evicting LRU.
	victim := 0
	for i := 1; i < len(lines); i++ {
		if lines[i].state == invalid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	v := &lines[victim]
	if v.state != invalid {
		h.evictL1(core, v)
	}
	v.tag = lineAddr
	v.lru = h.lruTick
	if write {
		v.state = modified
	} else {
		v.state = shared
	}
	return lat, level
}

// upgrade invalidates all other sharers of lineAddr (write to a Shared
// line) and returns the coherence latency.
func (h *Hierarchy) upgrade(core int, lineAddr uint64) uint64 {
	e := h.findLLC(lineAddr)
	if e == nil {
		return h.cfg.CoherencePs
	}
	h.invalidateSharers(e, lineAddr, core)
	e.owner = int8(core)
	e.sharers = 1 << uint(core)
	e.dirty = true
	return h.cfg.CoherencePs
}

// fetch services an L1 miss through the LLC and directory.
func (h *Hierarchy) fetch(core int, lineAddr uint64, write bool, nowPs uint64) (uint64, Level) {
	lat := h.cfg.LLCHitPs
	level := LevelLLC
	e := h.findLLC(lineAddr)
	if e == nil {
		// LLC miss: allocate, possibly evicting; fetch from DRAM.
		h.Stats.LLCMisses++
		level = LevelDRAM
		lat += h.dram(nowPs + lat)
		e = h.allocLLC(lineAddr, nowPs)
	} else {
		h.Stats.LLCHits++
		// If a remote core holds it modified, it must supply the data.
		if e.owner >= 0 && int(e.owner) != core {
			lat += h.cfg.CoherencePs
			h.downgradeOwner(e, lineAddr, write)
		}
	}
	if write {
		h.invalidateSharers(e, lineAddr, core)
		e.sharers = 1 << uint(core)
		e.owner = int8(core)
		e.dirty = true
	} else {
		e.sharers |= 1 << uint(core)
		if e.owner >= 0 && int(e.owner) != core {
			e.owner = -1 // now shared
		}
	}
	e.lru = h.lruTick
	return lat, level
}

// downgradeOwner forces the modified owner's L1 copy to shared (read) or
// invalid (write), modeling the dirty-data transfer.
func (h *Hierarchy) downgradeOwner(e *llcLine, lineAddr uint64, forWrite bool) {
	owner := int(e.owner)
	set := int(lineAddr & h.l1Mask)
	ways := h.cfg.L1Ways
	lines := h.l1s[owner][set*ways : (set+1)*ways]
	for i := range lines {
		if lines[i].state != invalid && lines[i].tag == lineAddr {
			if forWrite {
				lines[i].state = invalid
				h.Stats.Invalidations++
			} else {
				lines[i].state = shared
			}
			break
		}
	}
	h.Stats.Writebacks++
	e.owner = -1
	e.dirty = true
}

// invalidateSharers kills all L1 copies except keepCore's.
func (h *Hierarchy) invalidateSharers(e *llcLine, lineAddr uint64, keepCore int) {
	if e.sharers == 0 {
		return
	}
	set := int(lineAddr & h.l1Mask)
	ways := h.cfg.L1Ways
	for c := 0; c < len(h.l1s); c++ {
		if c == keepCore || e.sharers&(1<<uint(c)) == 0 {
			continue
		}
		lines := h.l1s[c][set*ways : (set+1)*ways]
		for i := range lines {
			if lines[i].state != invalid && lines[i].tag == lineAddr {
				lines[i].state = invalid
				h.Stats.Invalidations++
				break
			}
		}
	}
}

// evictL1 handles an L1 eviction: dirty lines write back to the LLC; the
// directory sharer bit clears.
func (h *Hierarchy) evictL1(core int, l *l1Line) {
	e := h.findLLC(l.tag)
	if e != nil {
		e.sharers &^= 1 << uint(core)
		if e.owner == int8(core) {
			e.owner = -1
		}
		if l.state == modified {
			e.dirty = true
			h.Stats.Writebacks++
		}
	}
}

// findLLC returns the LLC entry for lineAddr, or nil.
func (h *Hierarchy) findLLC(lineAddr uint64) *llcLine {
	set := int(lineAddr & h.llcMask)
	ways := h.cfg.LLCWays
	lines := h.llc[set*ways : (set+1)*ways]
	for i := range lines {
		if lines[i].valid && lines[i].tag == lineAddr {
			return &lines[i]
		}
	}
	return nil
}

// allocLLC victimizes an LLC way for lineAddr; inclusive hierarchy, so the
// victim's L1 copies are invalidated (back-invalidation).
func (h *Hierarchy) allocLLC(lineAddr uint64, nowPs uint64) *llcLine {
	set := int(lineAddr & h.llcMask)
	ways := h.cfg.LLCWays
	lines := h.llc[set*ways : (set+1)*ways]
	victim := 0
	for i := 1; i < len(lines); i++ {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lru < lines[victim].lru {
			victim = i
		}
	}
	v := &lines[victim]
	if v.valid {
		if v.sharers != 0 {
			h.invalidateSharers(v, v.tag, -1)
		}
		if v.dirty {
			h.Stats.Writebacks++
			h.dram(nowPs) // write-back occupies a channel
		}
	}
	v.tag = lineAddr
	v.valid = true
	v.dirty = false
	v.sharers = 0
	v.owner = -1
	v.lru = h.lruTick
	return v
}

// dram models one line transfer at time nowPs: fixed latency plus queueing
// behind earlier transfers on the address-interleaved channel. Returns the
// total latency contribution in picoseconds.
func (h *Hierarchy) dram(nowPs uint64) uint64 {
	ch := 0
	if len(h.chanFreePs) > 1 {
		// Interleave by line address via a cheap stride: use the stats
		// counter would break determinism across orderings, so interleave
		// on total accesses per channel: pick the earliest-free channel
		// (idealized channel scheduler).
		for i := 1; i < len(h.chanFreePs); i++ {
			if h.chanFreePs[i] < h.chanFreePs[ch] {
				ch = i
			}
		}
	}
	start := nowPs
	if h.chanFreePs[ch] > start {
		start = h.chanFreePs[ch]
	}
	queue := start - nowPs
	h.chanFreePs[ch] = start + h.linePs
	h.Stats.DRAMBytes += uint64(h.cfg.LineBytes)
	h.Stats.DRAMQueuePs += queue
	return queue + h.cfg.MemLatencyPs + h.linePs
}

// FlushL1 invalidates every line of one core's L1 (dirty lines write back),
// modeling the cold cache after thread migration.
func (h *Hierarchy) FlushL1(core int) {
	lines := h.l1s[core]
	for i := range lines {
		if lines[i].state == invalid {
			continue
		}
		h.evictL1(core, &lines[i])
		lines[i].state = invalid
	}
}
