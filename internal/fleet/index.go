// The dispatch index: incrementally maintained tournament trees over
// per-node routing keys that replace the per-arrival O(N) scan of the
// pre-index implementation with O(log N) queries, while reproducing the
// linear scan's selection — including its rotating tie-break — exactly.
//
// Every key is a single float64. A present node's key is finite or −Inf;
// +Inf means absent — tree padding, a node at queue capacity, or a dead
// node — so an absent leaf loses to every present one (the linear scan's
// best/bestFull split) and an interior slot is a plain float minimum of
// its children. Config.Validate rejects non-finite inputs, which keeps
// every present key below +Inf.
//
// Least-loaded (and hedged) dispatch uses one tree whose leaf key is
// drainAtS, the absolute instant the node's present backlog drains at
// full sprint width: busyUntilS + queuedNaiveS for a busy node, −Inf for
// an idle one. Ordering by the absolute instant is ordering by
// outstanding work (every candidate shares the same now), but the key
// only changes when the node's state changes — enqueue, service start,
// completion — never merely because time passed. Idle nodes share the
// single key −Inf, so they tie exactly and the rotating tie-break
// spreads consecutive arrivals across them just as the scan did.
//
// An update stops at the first ancestor whose minimum did not change —
// at once when the leaf's key is unchanged. argmin reads the minimum off
// the root; firstLE finds the first leaf at or below a threshold in
// rotation order by two iterative firstFrom passes, the suffix from the
// start and then the wrap-around from leaf 0, each climbing to the first
// qualifying right sibling and descending to its leftmost qualifying
// leaf. Every query, hedged dispatch's argminExcept included, only reads
// a tree: the sim's touch and buildIndex's reset write them.
//
// Sprint-aware dispatch scores a node as its backlog-drain instant plus
// a governor-projected service time, which depends on the request's
// size — no single static key orders busy and idle nodes together. It
// therefore splits the fleet across two trees:
//
//   - idle nodes are keyed by Governor.EmptyAtS, the instant the refill
//     line extrapolates back to an empty budget, which orders a class's
//     idle nodes by projected finish for every request size (equal keys
//     project identically). One firstLE query at the class's
//     Governor.CoverKeyS finds the first node in rotation order whose
//     budget covers the request at full width (the scan's tie set,
//     rotation-resolved); if none qualifies, the argmin holds the
//     most-recovered budget and is the unique best.
//   - busy nodes are keyed by drainAtS and enumerated best-first, tree
//     slots popped off an eventQueue by subtree minimum, with the
//     admissible bound drainAtS + work/width (a node cannot finish
//     before its backlog drains plus a full-width service; the bound is
//     exact when the projected budget covers the request), so with
//     healthy thermal budgets the enumeration inspects only nodes that
//     could still beat the idle champion — usually none — and with
//     every budget depleted it degrades gracefully toward the full scan
//     it replaces.
package fleet

import "math"

// dispatchIndex is a 1-based implicit binary tournament tree over fleet
// routing keys. Leaf i of the fleet lives at tree slot size+i, every
// interior slot holds the minimum of its two children, and absent
// leaves hold +Inf.
type dispatchIndex struct {
	n    int // real leaves (fleet size)
	size int // power-of-two leaf span
	d    []float64
}

// newDispatchIndex builds an empty tree (every leaf absent); reset
// populates the real leaves.
func newDispatchIndex(n int) *dispatchIndex {
	size := 1
	for size < n {
		size <<= 1
	}
	t := &dispatchIndex{n: n, size: size, d: make([]float64, 2*size)}
	for i := range t.d {
		t.d[i] = math.Inf(1)
	}
	return t
}

// reset sets every real leaf present with the same key and rebuilds the
// aggregates in O(n) — the all-idle initial state of a simulation.
func (t *dispatchIndex) reset(d float64) {
	for i := 0; i < t.n; i++ {
		t.d[t.size+i] = d
	}
	for i := t.size - 1; i >= 1; i-- {
		t.d[i] = min(t.d[2*i], t.d[2*i+1])
	}
}

// update replaces node id's key and refreshes the path to the root. An
// interior slot is a pure function of its children, so the walk stops at
// the first ancestor whose aggregate does not change — at once when the
// leaf's own key is unchanged.
//
//sprint:hotpath
func (t *dispatchIndex) update(id int, d float64) {
	i := t.size + id
	if t.d[i] == d {
		return
	}
	t.d[i] = d
	for i >>= 1; i >= 1; i >>= 1 {
		m := min(t.d[2*i], t.d[2*i+1])
		if t.d[i] == m {
			return
		}
		t.d[i] = m
	}
}

// argmin returns the present node holding the minimum key that comes
// first in rotation order from start, or -1 when no node is present. It
// reproduces the linear scan exactly: the scan's strict less-than keeps
// the first minimum it meets walking (start+i) mod n. Since the root
// aggregate is the global minimum, "key equal to it" and "key at most
// it" coincide, so the descent is firstLE at that threshold (+Inf on an
// all-absent tree, which matches no leaf).
//
//sprint:hotpath
func (t *dispatchIndex) argmin(start int) int {
	return t.firstLE(start, t.d[1])
}

// argminExcept is argmin over every present node but ex (all of them when
// ex < 0): hedging never duplicates onto the original copy's node. The
// minimum of every leaf but ex is the minimum of the siblings on ex's
// path to the root; firstLE at it finds the first node in rotation order
// that holds it, and nextLE steps past ex, which may tie or beat it.
//
//sprint:hotpath
func (t *dispatchIndex) argminExcept(start, ex int) int {
	if ex < 0 {
		return t.argmin(start)
	}
	m := math.Inf(1)
	for i := t.size + ex; i > 1; i >>= 1 {
		m = min(m, t.d[i^1])
	}
	if m == math.Inf(1) {
		return -1 // no other node is present
	}
	i := t.firstLE(start, m)
	if i == ex {
		i = t.nextLE(start, i, m)
	}
	return i
}

// firstLE returns the present node with key ≤ thresh that comes first in
// rotation order from start, or -1. Sprint-aware dispatch uses it to
// resolve the rotating tie among every idle node whose projected budget
// covers the request at full width (at +Inf, the first present node);
// argmin uses it with the root's own minimum as the threshold.
//
//sprint:hotpath
func (t *dispatchIndex) firstLE(start int, thresh float64) int {
	if i := t.firstFrom(start, thresh); i >= 0 {
		return i
	}
	return t.firstFrom(0, thresh) // the suffix failed: any hit lies before start
}

// nextLE returns the present leaf with key ≤ thresh that follows leaf
// after in rotation order from start, the first such leaf when after is
// -1, or -1 once the walk would come back round to start. Called with -1
// and then with each leaf it returns, it lists firstLE's tie set in
// rotation order, O(log N) per leaf, without writing the tree.
//
//sprint:hotpath
func (t *dispatchIndex) nextLE(start, after int, thresh float64) int {
	if after < 0 {
		return t.firstLE(start, thresh)
	}
	if after >= start {
		if after+1 < t.n {
			if i := t.firstFrom(after+1, thresh); i >= 0 {
				return i
			}
		}
		after = -1 // the suffix from start is done: wrap to leaf 0
	}
	if i := t.firstFrom(after+1, thresh); i >= 0 && i < start {
		return i
	}
	return -1
}

// minLeaf returns the leftmost leaf under tree slot c that holds the
// slot's key, the subtree's minimum.
//
//sprint:hotpath
func (t *dispatchIndex) minLeaf(c int) int {
	for c < t.size {
		c <<= 1
		if t.d[c] != t.d[c>>1] {
			c++
		}
	}
	return c - t.size
}

// firstFrom returns the first present leaf at or after lo whose key is
// ≤ thresh, or -1. It climbs from leaf lo to the first right sibling
// whose subtree qualifies, then descends to that subtree's leftmost
// qualifying leaf. The threshold is clamped to the largest finite key,
// so no absent leaf qualifies and a +Inf threshold means "any present
// leaf".
//
//sprint:hotpath
func (t *dispatchIndex) firstFrom(lo int, thresh float64) int {
	thresh = min(thresh, math.MaxFloat64)
	if t.d[1] > thresh {
		return -1
	}
	i := t.size + lo
	for t.d[i] > thresh {
		for i&1 == 1 { // a right child ends its parent's span too: climb
			i >>= 1
		}
		if i == 0 { // climbed out past the root
			return -1
		}
		i++
	}
	for i < t.size {
		i <<= 1
		if t.d[i] > thresh {
			i++
		}
	}
	return i - t.size
}
