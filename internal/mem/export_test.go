package mem

import (
	"fmt"
	"slices"
)

// CheckCoherenceInvariant verifies the single-writer/multiple-reader
// invariant across all L1s: a line modified in one L1 must not be valid in
// any other. It returns an error describing the violation on the lowest
// offending tag, so the same broken state always reports the same line
// regardless of map iteration order. Tests call this after randomized
// workloads.
func (h *Hierarchy) CheckCoherenceInvariant() error {
	type holder struct {
		core  int
		state state
	}
	seen := make(map[uint64][]holder)
	for c := range h.l1s {
		for i := range h.l1s[c] {
			l := &h.l1s[c][i]
			if l.state == invalid {
				continue
			}
			seen[l.tag] = append(seen[l.tag], holder{core: c, state: l.state})
		}
	}
	tags := make([]uint64, 0, len(seen))
	for tag := range seen {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	for _, tag := range tags {
		hs := seen[tag]
		writers := 0
		for _, x := range hs {
			if x.state == modified || x.state == exclusive {
				writers++
			}
		}
		if writers > 1 || (writers == 1 && len(hs) > 1) {
			return fmt.Errorf("mem: line %#x violates single-writer: %d holders, %d writers", tag, len(hs), writers)
		}
	}
	return nil
}

// ResetChannels clears channel occupancy.
func (h *Hierarchy) ResetChannels() {
	for i := range h.chanFreePs {
		h.chanFreePs[i] = 0
	}
}
