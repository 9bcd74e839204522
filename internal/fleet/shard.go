// Sharded execution: one fleet simulation split across W per-worker
// event loops, with racks as the shard boundary so every rack power
// domain is owned by exactly one worker. The contract is absolute:
// Metrics are byte-identical at every worker count, and Workers ≤ 1
// runs the one loop over the whole fleet.
//
// Only a decoupled configuration shards (see start): plain round-robin
// dispatch is a static assignment — arrival i goes to node i mod N,
// because the rotation counter advances exactly once per arrival and
// never reads node state — so with rack admission also shard-local
// (anything but the Probabilistic policy's global random stream) the
// shards share no state at all. Each worker runs the same loop over its
// node range on its own goroutine, its strided cursor selecting the
// arrivals it owns, and the parent merges only CancelledCopies and the
// last completion instant (SimS). Shards carry no latency, outcome or
// rack totals — each request's fate sits in the shared arena, each
// rack's and node's counts in the shared rack and node arrays — so every
// outcome count, every rack and node total, every latency and every
// float is reduced afterwards by finish() in canonical arena/node/rack
// order. This is the engine the ≥3× speedup gate measures; it is real
// parallelism.
//
// Everything else is coupled: least-loaded, sprint-aware, and hedged
// dispatch take a fleet-wide argmin on every arrival, and scenario churn,
// Probabilistic admission, tracing, reliability, and workloads consume
// fleet-global state in event order — the outcome at time t depends on
// every node's state at time t, so the dependency chain between
// consecutive events is the simulation's critical path and shards could
// only replay the single loop's order, more slowly. A coupled run
// therefore runs the one loop over the whole fleet whatever Workers says,
// which is byte-identical by construction.
package fleet

import (
	"context"
	"sync"
)

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
// fleet-global random stream. Everything else runs the loop over the
// whole fleet at any worker count — including any traced run, because the
// flight recorder appends one global record stream in event order, any
// run with the reliability layer armed, whose retry budget and seeded
// fault/jitter draws are likewise fleet-global state consumed in event
// order, and any workload run, whose per-class admission buckets and
// dequeue disciplines are fleet-global too.
func (s *sim) parallelOK() bool {
	return s.scen == nil && s.cfg.Policy == RoundRobin && s.cfg.Coordination != Probabilistic && s.rec == nil && s.rel == nil && s.wl == nil
}

// start runs the event loop and assembles the metrics. A decoupled
// configuration with Workers > 1 runs one goroutine per shard, each a
// self-contained sim sharing the parent's node, rack, class, and request
// arrays (all index-disjoint across shards), merged when every worker
// drains; everything else runs one loop over the whole fleet.
//
// Shards are contiguous rack-aligned node ranges (rack size 1 when
// power domains are off), distributed as evenly as whole racks allow;
// Workers is clamped to the rack-group count so no shard is empty, and a
// clamp to one group runs the whole-fleet loop.
func (s *sim) start(ctx context.Context) (Metrics, error) {
	rackSz := 1
	if s.cfg.Coordination != NoCoordination {
		rackSz = s.cfg.RackSize
	}
	nRacks := (s.cfg.Nodes + rackSz - 1) / rackSz
	w := min(s.cfg.Workers, nRacks)
	if w <= 1 || !s.parallelOK() {
		if err := s.loop(ctx, 0, len(s.nodes)); err != nil {
			return Metrics{}, err
		}
		return s.finish(), nil
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
		sub.classes = s.classes
		sub.lastFailed = -1
		sub.nodes = s.nodes
		sub.racks = s.racks
		sub.reqs = s.reqs
		sub.m.Policy = s.cfg.Policy
		nlo, nhi := cuts[k], cuts[k+1]
		sub.events.reserve(queueReserve(nhi - nlo))
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = sub.loop(ctx, nlo, nhi)
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
		s.m.CancelledCopies += sub.m.CancelledCopies
		s.lastDoneS = max(s.lastDoneS, sub.lastDoneS)
	}
	return s.finish(), nil
}

// dispatchTo routes an arrival to its statically assigned round-robin
// target, mirroring dispatch() with the selection precomputed: the
// sequential rotation counter equals the arrival index, every node is
// alive (no churn outside scenario mode), and round-robin never hedges.
func (s *sim) dispatchTo(ri int32, n *node) {
	if s.full(n) {
		s.drop(ri, n)
		return
	}
	s.reqs[ri].firstNode = int32(n.id)
	s.enqueue(n, reqCopy{req: ri})
}
