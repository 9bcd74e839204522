// Sharded execution: one fleet simulation split across W per-worker
// event loops, with racks as the shard boundary so every rack power
// domain is owned by exactly one worker. The contract is absolute:
// Metrics are byte-identical at every worker count, and Workers ≤ 1
// reproduces the classic single-loop engine exactly.
//
// Two engines implement the contract, chosen by how much the
// configuration couples the shards:
//
//   - Decoupled (runParallel): plain round-robin dispatch is a static
//     assignment — arrival i goes to node i mod N, because the rotation
//     counter advances exactly once per arrival and never reads node
//     state — so with rack admission also shard-local (anything but the
//     Probabilistic policy's global random stream) the shards share no
//     state at all. Each worker runs the ordinary merged
//     arrival-cursor/event-heap loop over its node range on its own
//     goroutine, with a strided cursor selecting the arrivals it owns,
//     and the parent merges the results: integer counters add, SimS is
//     the max completion instant, latencies reduce through
//     series.Histogram.Merge (or buffer concatenation — finish sorts),
//     and every remaining float is already reduced in canonical arena/
//     node/rack order by finish(). This is the engine the ≥3× speedup
//     gate measures; it is real parallelism.
//
//   - Coupled (runSharded): least-loaded, sprint-aware, and hedged
//     dispatch take a fleet-wide argmin on every arrival, and scenario
//     churn and Probabilistic admission consume global seeded streams —
//     the outcome at time t depends on every shard's state at time t,
//     so concurrent shard execution cannot preserve byte-identity (the
//     dependency chain between consecutive dispatches is the
//     simulation's critical path). Instead the shard structure is kept
//     — per-shard event heaps fed by ownership-routed pushes (see
//     push in events.go), per-shard dispatch-index segments merged at
//     query time — and a driver replays the exact global order: each
//     step pops the earliest of the shard heap tops, the fleet-global
//     heap, and the arrival cursor, using the still-global sequence
//     counter as the tie-break. The merge is a K-way heap-top
//     comparison, so it is order-independent by construction: the
//     minimum of per-shard minima is the global minimum, whatever the
//     shard count. Epochs degenerate to single events; determinism is
//     the point, not speedup.
//
// The dispatch index is likewise segmented (dspSeg): one tournament
// tree group per contiguous (shard range × class block) intersection,
// with queries merged under the total candidate order the linear scan
// defines. The same mechanism restores O(log N) sprint-aware dispatch
// to heterogeneous NodeClasses fleets (previously a whole-fleet linear
// rescan per arrival): class blocks are contiguous by construction, so
// a per-class segment is just a shard of width one class.
package fleet

import (
	"context"
	"math"
	"sync"

	"sprinting/internal/series"
)

// dspSeg is one dispatch-index segment: the tournament trees over the
// contiguous node range [lo, hi), which spans exactly one node class.
// Least-loaded/hedged selection uses idx (drain keys); sprint-aware
// selection uses the busyIdx/idleIdx pair. Tree leaves are local ids
// (node id − lo).
type dspSeg struct {
	lo, hi int
	class  int32

	idx     *dispatchIndex
	busyIdx *dispatchIndex
	idleIdx *dispatchIndex
}

// shardLoop is one shard's state under the serialized-merge engine:
// its event heap. The driver owns time and the global sequence counter.
type shardLoop struct {
	events eventQueue
}

// arenaPool recycles request arenas across runs and sweep points: the
// arena is the simulator's one large per-run allocation, and sweep
// drivers (and benchmark loops) otherwise pay it per point.
var arenaPool sync.Pool

// getArena returns a request arena of length n, reusing a pooled
// allocation when one is large enough. Callers overwrite every element
// they use; putArena returns the arena once finish() has read it.
func getArena(n int) []request {
	if p, _ := arenaPool.Get().(*[]request); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]request, n)
}

// putArena recycles an arena. The Metrics returned to callers never
// reference it, so recycling is safe the moment finish() returns.
func putArena(reqs []request) {
	if cap(reqs) == 0 {
		return
	}
	arenaPool.Put(&reqs)
}

// initShards computes the shard layout and builds the dispatch-index
// segments; newSim calls it once the nodes, classes, and racks exist.
//
// Shards are contiguous rack-aligned node ranges (rack size 1 when
// power domains are off), distributed as evenly as whole racks allow;
// Workers is clamped to the rack-group count so no shard is empty.
// The coupled engine additionally gets its per-shard heaps and the
// node/rack → shard routing tables; the decoupled engine builds its
// per-worker loops at run time from the same cuts.
func (s *sim) initShards() {
	cfg := s.cfg
	rackSz := 1
	if cfg.Coordination != NoCoordination {
		rackSz = cfg.RackSize
	}
	nRacks := (cfg.Nodes + rackSz - 1) / rackSz
	w := cfg.Workers
	if w > nRacks {
		w = nRacks
	}
	if w > 1 {
		s.cuts = make([]int, w+1)
		for k := 0; k <= w; k++ {
			n := (k * nRacks / w) * rackSz
			if n > cfg.Nodes {
				n = cfg.Nodes
			}
			s.cuts[k] = n
		}
	}
	if !s.useRef && cfg.Policy != RoundRobin {
		s.buildSegs()
	}
	if w > 1 && !s.parallelOK() {
		s.shards = make([]shardLoop, w)
		s.shardIdx = make([]int32, cfg.Nodes)
		for k := 0; k < w; k++ {
			for i := s.cuts[k]; i < s.cuts[k+1]; i++ {
				s.shardIdx[i] = int32(k)
			}
		}
		if len(s.racks) > 0 {
			s.rackShard = make([]int32, len(s.racks))
			for r := range s.racks {
				s.rackShard[r] = s.shardIdx[r*cfg.RackSize]
			}
		}
	}
}

// parallelOK reports whether the shards are fully decoupled, making the
// concurrent engine exact: a plain (non-scenario) run under state-blind
// round-robin dispatch, without the Probabilistic admission policy's
// fleet-global random stream. Everything else routes through the
// serialized-merge engine — including any traced run, because the flight
// recorder appends one global record stream in event order and must
// produce identical bytes at every worker count, and any run with the
// reliability layer armed, whose retry budget and seeded fault/jitter
// draws are likewise fleet-global state consumed in event order, and any
// workload run, whose per-class admission buckets and dequeue
// disciplines are fleet-global too.
func (s *sim) parallelOK() bool {
	return s.scen == nil && s.cfg.Policy == RoundRobin && s.cfg.Coordination != Probabilistic && s.rec == nil && s.rel == nil && s.wl == nil
}

// buildSegs lowers the shard cuts × class blocks into dispatch-index
// segments. Both cut families are contiguous index ranges, so segments
// are simply the intervals between the union of their boundaries. A
// sequential homogeneous run yields one segment — the classic single
// tree, traversed identically.
func (s *sim) buildSegs() {
	nn := len(s.nodes)
	bound := make([]bool, nn+1)
	bound[0], bound[nn] = true, true
	for i := 1; i < nn; i++ {
		if s.nodes[i].class != s.nodes[i-1].class {
			bound[i] = true
		}
	}
	for _, c := range s.cuts {
		bound[c] = true
	}
	s.segIdx = make([]int32, nn)
	lo := 0
	for hi := 1; hi <= nn; hi++ {
		if !bound[hi] {
			continue
		}
		sg := dspSeg{lo: lo, hi: hi, class: s.nodes[lo].class}
		switch s.cfg.Policy {
		case SprintAware:
			sg.busyIdx = newDispatchIndex(hi - lo) // empty: no node busy
			sg.idleIdx = newDispatchIndex(hi - lo)
			sg.idleIdx.reset(s.tKey(&s.nodes[lo])) // full budgets: one shared key per class
		default: // LeastLoaded, Hedged
			sg.idx = newDispatchIndex(hi - lo)
			sg.idx.reset(math.Inf(-1)) // every node idle
		}
		for i := lo; i < hi; i++ {
			s.segIdx[i] = int32(len(s.segs))
		}
		s.segs = append(s.segs, sg)
		lo = hi
	}
}

// segArgmin returns the node holding the fleet-wide minimum (full, key)
// pair that comes first in rotation order from rot, or -1 when every
// node is absent — the single-tree argmin generalized across segments.
// The fleet minimum is the minimum of the segment roots (order-
// independent), and the first-in-rotation holder is found by walking
// the segments in cyclic node order from the one containing rot: the
// containing segment's suffix, every other segment in order, then the
// containing segment's prefix — exactly the index order the one-tree
// firstLE descent visits.
func (s *sim) segArgmin(rot int) int {
	mFull, mD := true, math.Inf(1)
	for si := range s.segs {
		t := s.segs[si].idx
		if keyLess(t.full[1], t.d[1], mFull, mD) {
			mFull, mD = t.full[1], t.d[1]
		}
	}
	if mFull {
		return -1
	}
	return s.segFirstLE(rot, mD)
}

// segFirstLE returns the present node with key ≤ thresh that comes first
// in rotation order from rot across every segment, or -1: the containing
// segment's suffix, every other segment in order, then its prefix.
func (s *sim) segFirstLE(rot int, thresh float64) int {
	k := int(s.segIdx[rot])
	sg := &s.segs[k]
	if id := sg.idx.firstLERange(1, 0, sg.idx.size, rot-sg.lo, sg.idx.n, thresh); id >= 0 {
		return sg.lo + id
	}
	for j := 1; j < len(s.segs); j++ {
		t := &s.segs[(k+j)%len(s.segs)]
		if id := t.idx.firstLERange(1, 0, t.idx.size, 0, t.idx.n, thresh); id >= 0 {
			return t.lo + id
		}
	}
	if id := sg.idx.firstLERange(1, 0, sg.idx.size, 0, rot-sg.lo, thresh); id >= 0 {
		return sg.lo + id
	}
	return -1
}

// altArgmin is the recorder's alternatives query: the present node first
// under the candidate order (recorded key, rotation distance from rot)
// that collectAlts' scan reproduces, or -1 when no node is present.
// Sprint-aware records the selector's own score, so its argmin is the
// selector's. Least-loaded records an idle node's −Inf drain key as now,
// so the minimum's tie set is every node keyed at or before now: the idle
// nodes plus any busy node whose backlog drains exactly now (a completion
// due at the arrival's instant, which fires after it). No busy node keys
// earlier — its completion would already have fired — so resolving the
// rotation among keys ≤ now reproduces the scan exactly.
func (s *sim) altArgmin(rot int, workS float64) int {
	if s.cfg.Policy == SprintAware {
		if n := s.sprintAwareMin(rot, workS); n != nil {
			return n.id
		}
		return -1
	}
	present, m := false, math.Inf(1)
	for si := range s.segs {
		if t := s.segs[si].idx; !t.full[1] && t.d[1] <= m {
			present, m = true, t.d[1]
		}
	}
	if !present {
		return -1
	}
	return s.segFirstLE(rot, math.Max(m, s.nowS))
}

// start runs the engine the configuration selected: the serialized
// merge when coupled shards exist, the concurrent per-worker loops when
// the shards are decoupled, and the classic loop otherwise.
func (s *sim) start(ctx context.Context) (Metrics, error) {
	switch {
	case s.shards != nil:
		return s.runSharded(ctx)
	case s.cuts != nil:
		return s.runParallel(ctx)
	default:
		return s.run(ctx)
	}
}

// runSharded is the coupled engine's driver: per-shard event heaps,
// merged one event at a time. Each step compares the arrival cursor,
// the fleet-global heap, and every shard heap's top and fires the
// earliest by (time, global sequence) — the same total order the single
// heap pops, so handlers, random draws, and accounting replay in the
// exact sequential order at any worker count.
func (s *sim) runSharded(ctx context.Context) (Metrics, error) {
	arrival := 0
	for steps := 0; ; steps++ {
		if steps&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return Metrics{}, err
			}
		}
		src := -2 // -2 none, -1 global heap, k ≥ 0 shard k
		var top event
		if s.events.len() > 0 {
			src, top = -1, s.events.top()
		}
		for k := range s.shards {
			if q := &s.shards[k].events; q.len() > 0 {
				if src == -2 || eventBefore(q.top(), top) {
					src, top = k, q.top()
				}
			}
		}
		if arrival < len(s.reqs) && (src == -2 || s.reqs[arrival].arrivalS <= top.atS) {
			s.nowS = s.reqs[arrival].arrivalS
			if s.rec != nil {
				s.rec.tick(s)
			}
			s.dispatch(int32(arrival))
			arrival++
			continue
		}
		if src == -2 {
			break
		}
		var ev event
		if src == -1 {
			ev = s.events.pop()
		} else {
			ev = s.shards[src].events.pop()
		}
		s.nowS = ev.atS
		if s.rec != nil {
			s.rec.tick(s)
		}
		s.handle(ev)
	}
	return s.finish(), nil
}

// runParallel is the decoupled engine: one goroutine per shard, each a
// self-contained sim sharing the parent's node, rack, class, and
// request arrays (all index-disjoint across shards), merged when every
// worker drains.
func (s *sim) runParallel(ctx context.Context) (Metrics, error) {
	w := len(s.cuts) - 1
	subs := make([]sim, w)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		sub := &subs[k]
		sub.cfg = s.cfg
		sub.rate = s.rate
		sub.classes = s.classes
		sub.lastFailed = -1
		sub.nodes = s.nodes
		sub.racks = s.racks
		sub.reqs = s.reqs
		sub.m.Policy = s.cfg.Policy
		nlo, nhi := s.cuts[k], s.cuts[k+1]
		if s.hist != nil {
			sub.hist = series.NewHistogram()
		} else {
			sub.latencies = make([]float64, 0, len(s.reqs)/w+64)
		}
		// Pre-size the heap for its steady state (a completion and sprint
		// end per busy node, trip bookkeeping per rack) so the worker loop
		// never reallocates it.
		sub.events.a = make([]event, 0, 2*(nhi-nlo)+64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = sub.runStride(ctx, nlo, nhi)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Metrics{}, err
		}
	}
	for k := range subs {
		sub := &subs[k]
		s.m.Completed += sub.m.Completed
		s.m.Dropped += sub.m.Dropped
		s.m.CancelledCopies += sub.m.CancelledCopies
		s.m.BreakerTrips += sub.m.BreakerTrips
		s.m.PermitRequests += sub.m.PermitRequests
		s.m.PermitDenials += sub.m.PermitDenials
		if sub.lastDoneS > s.lastDoneS {
			s.lastDoneS = sub.lastDoneS
		}
		if s.hist != nil {
			s.hist.Merge(sub.hist)
		} else {
			// Concatenation order is irrelevant: finish() sorts before
			// computing quantiles, and the mean reduces over the arena.
			s.latencies = append(s.latencies, sub.latencies...)
		}
	}
	return s.finish(), nil
}

// runStride is one decoupled worker's loop over the node range
// [nlo, nhi): the classic merged arrival-cursor/event-heap loop, with
// the cursor striding over exactly the arrivals whose round-robin
// target i mod N falls in the range. Arrival order within the worker is
// ascending index — base*N + j for j in [nlo, nhi) — which is ascending
// time, so the merge rule (arrival fires first on a time tie) behaves
// exactly as in the sequential loop.
func (w *sim) runStride(ctx context.Context, nlo, nhi int) error {
	nn := len(w.nodes)
	base, j := 0, nlo
	ai := nlo
	for steps := 0; ; steps++ {
		if steps&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if ai < len(w.reqs) && (w.events.len() == 0 || w.reqs[ai].arrivalS <= w.events.top().atS) {
			w.nowS = w.reqs[ai].arrivalS
			w.dispatchTo(int32(ai), &w.nodes[j])
			j++
			if j == nhi {
				j = nlo
				base += nn
			}
			ai = base + j
			continue
		}
		if w.events.len() == 0 {
			break
		}
		ev := w.events.pop()
		w.nowS = ev.atS
		w.handle(ev)
	}
	return nil
}

// dispatchTo routes an arrival to its statically assigned round-robin
// target, mirroring dispatch() with the selection precomputed: the
// sequential rotation counter equals the arrival index, every node is
// alive (no churn outside scenario mode), and round-robin never hedges.
func (s *sim) dispatchTo(ri int32, n *node) {
	if n.outstanding() >= s.cl(n).queueCap {
		s.drop(ri, n)
		return
	}
	s.reqs[ri].firstNode = int32(n.id)
	s.enqueue(n, reqCopy{req: ri})
}
