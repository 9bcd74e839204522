// Sharded execution: one fleet simulation split across W per-worker
// event loops, with racks as the shard boundary so every rack power
// domain is owned by exactly one worker. The contract is absolute:
// Metrics are byte-identical at every worker count, and Workers ≤ 1
// reproduces the classic single-loop engine exactly.
//
// Only a decoupled configuration shards (runParallel): plain round-robin
// dispatch is a static assignment — arrival i goes to node i mod N,
// because the rotation counter advances exactly once per arrival and
// never reads node state — so with rack admission also shard-local
// (anything but the Probabilistic policy's global random stream) the
// shards share no state at all. Each worker runs the ordinary merged
// arrival-cursor/event-heap loop over its node range on its own
// goroutine, with a strided cursor selecting the arrivals it owns, and
// the parent merges the results: integer counters add, SimS is the max
// completion instant, latencies reduce through series.Histogram.Merge
// (or buffer concatenation — finish sorts), and every remaining float is
// already reduced in canonical arena/node/rack order by finish(). This
// is the engine the ≥3× speedup gate measures; it is real parallelism.
//
// Everything else is coupled: least-loaded, sprint-aware, and hedged
// dispatch take a fleet-wide argmin on every arrival, and scenario churn,
// Probabilistic admission, tracing, reliability, and workloads consume
// fleet-global state in event order — the outcome at time t depends on
// every node's state at time t, so the dependency chain between
// consecutive events is the simulation's critical path and shards could
// only replay the single loop's order, more slowly. A coupled run
// therefore takes the classic single loop whatever Workers says, which
// is byte-identical by construction.
//
// Sprint-aware's dispatch index is segmented (dspSeg): one tournament
// tree pair per contiguous node-class block, with queries merged under
// the total candidate order the linear scan defines. That keeps
// sprint-aware dispatch O(log N) on heterogeneous NodeClasses fleets
// (sprint-aware idle keys are only comparable within one class); a
// homogeneous fleet gets exactly one segment. Least-loaded and hedged
// dispatch key on an absolute drain instant, comparable across classes,
// so they use one fleet-wide tree.
package fleet

import (
	"context"
	"math"
	"sync"

	"sprinting/internal/series"
)

// dspSeg is one sprint-aware dispatch-index segment: the busy and idle
// tournament trees over the contiguous node range [lo, hi), which spans
// exactly one node class. Tree leaves are local ids (node id − lo).
type dspSeg struct {
	lo, hi int
	class  int32

	busyIdx *dispatchIndex
	idleIdx *dispatchIndex
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

// parallelOK reports whether the shards are fully decoupled, making the
// concurrent engine exact: a plain (non-scenario) run under state-blind
// round-robin dispatch, without the Probabilistic admission policy's
// fleet-global random stream. Everything else runs the classic single
// loop at any worker count — including any traced run, because the
// flight recorder appends one global record stream in event order, any
// run with the reliability layer armed, whose retry budget and seeded
// fault/jitter draws are likewise fleet-global state consumed in event
// order, and any workload run, whose per-class admission buckets and
// dequeue disciplines are fleet-global too.
func (s *sim) parallelOK() bool {
	return s.scen == nil && s.cfg.Policy == RoundRobin && s.cfg.Coordination != Probabilistic && s.rec == nil && s.rel == nil && s.wl == nil
}

// buildIndex builds the dispatch index the policy reads. Least-loaded
// and hedged get one fleet-wide drain-key tree. Sprint-aware gets one
// segment per node-class block: classes are assigned in contiguous
// blocks, so each segment is one maximal run of a single class, and a
// homogeneous fleet yields one segment.
func (s *sim) buildIndex() {
	nn := len(s.nodes)
	if s.cfg.Policy != SprintAware {
		s.idx = newDispatchIndex(nn)
		s.idx.reset(math.Inf(-1)) // every node idle
		return
	}
	s.segIdx = make([]int32, nn)
	lo := 0
	for hi := 1; hi <= nn; hi++ {
		if hi < nn && s.nodes[hi].class == s.nodes[lo].class {
			continue
		}
		sg := dspSeg{lo: lo, hi: hi, class: s.nodes[lo].class}
		sg.busyIdx = newDispatchIndex(hi - lo) // empty: no node busy
		sg.idleIdx = newDispatchIndex(hi - lo)
		sg.idleIdx.reset(s.tKey(&s.nodes[lo])) // full budgets: one shared key per class
		for i := lo; i < hi; i++ {
			s.segIdx[i] = int32(len(s.segs))
		}
		s.segs = append(s.segs, sg)
		lo = hi
	}
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
	return s.idx.firstLE(rot, math.Max(s.idx.d[1], s.nowS))
}

// start runs the engine the configuration selected: the concurrent
// per-worker loops when Workers > 1 and the shards are decoupled, and
// the classic loop otherwise.
func (s *sim) start(ctx context.Context) (Metrics, error) {
	if s.cfg.Workers > 1 && s.parallelOK() {
		return s.runParallel(ctx)
	}
	return s.run(ctx)
}

// runParallel is the decoupled engine: one goroutine per shard, each a
// self-contained sim sharing the parent's node, rack, class, and
// request arrays (all index-disjoint across shards), merged when every
// worker drains.
//
// Shards are contiguous rack-aligned node ranges (rack size 1 when
// power domains are off), distributed as evenly as whole racks allow;
// Workers is clamped to the rack-group count so no shard is empty, and a
// clamp to one group runs the classic loop.
func (s *sim) runParallel(ctx context.Context) (Metrics, error) {
	rackSz := 1
	if s.cfg.Coordination != NoCoordination {
		rackSz = s.cfg.RackSize
	}
	nRacks := (s.cfg.Nodes + rackSz - 1) / rackSz
	w := min(s.cfg.Workers, nRacks)
	if w <= 1 {
		return s.run(ctx)
	}
	cuts := make([]int, w+1)
	for k := range cuts {
		cuts[k] = min((k*nRacks/w)*rackSz, s.cfg.Nodes)
	}
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
		nlo, nhi := cuts[k], cuts[k+1]
		if s.hist != nil {
			sub.hist = series.NewHistogram()
		} else {
			sub.latencies = make([]float64, 0, len(s.reqs)/w+64)
		}
		sub.events.reserve(queueReserve(nhi - nlo))
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
			if err := w.loopErr(ctx); err != nil {
				return err
			}
		}
		if ai < len(w.reqs) && (w.events.len() == 0 || w.reqs[ai].arrivalS <= w.events.topAt()) {
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
		at, ev := w.events.pop()
		w.nowS = at
		w.handle(ev)
	}
	if w.events.overflow {
		return errQueueOverflow
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
