package fleet

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sprinting/internal/trace"
)

// TestIndexedAltsMatchScan is the recorder's cross-implementation oracle:
// the alternatives the walk takes from the dispatch index must record
// exactly the trace the retained O(N) scan records — same nodes, same
// order, same keys, same probes — for every policy × coordination, on a
// plain overloaded run (full queues), a flash crowd with failure churn
// (dead nodes and redispatches), a heterogeneous fleet with an ambient
// swing (a sprint-aware busy/idle tree pair per class), and a 4-node fleet where k reaches past every
// eligible node, at several seeds and alternative counts — plus a
// hand-built least-loaded stream that hits the one order the index does
// not share with the recorder (testIdleBusyTie), and a hedge whose
// excluded node is the only idle one (testHedgeExcludesOnlyIdle).
func TestIndexedAltsMatchScan(t *testing.T) {
	if refAlts {
		t.Fatal("refAlts already set")
	}
	t.Run("least-loaded/idle-busy-tie", testIdleBusyTie)
	t.Run("hedged/exclude-only-idle", testHedgeExcludesOnlyIdle)
	forAltShapes(func(name string, cfg Config, sc *Scenario) {
		indexed := mustTraceShape(t, cfg, sc)
		refAlts = true
		scanned := mustTraceShape(t, cfg, sc)
		refAlts = false
		if !reflect.DeepEqual(indexed, scanned) {
			t.Errorf("%s: index-driven alternatives diverged from the scan: %s", name, firstTraceDiff(indexed, scanned))
		}
	})
}

// TestAltsReadOnly pins the walk's read-only contract on the
// TestIndexedAltsMatchScan shapes: every dispatch tree holds exactly the
// same keys after a traced decision as before it.
func TestAltsReadOnly(t *testing.T) {
	var before [][]float64
	decisions := 0
	watchDecision = func(s *sim) func() {
		before = treeKeys(s, before[:0])
		return func() {
			decisions++
			after := treeKeys(s, nil)
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("decision %d at %g wrote the dispatch trees", decisions, s.nowS)
			}
		}
	}
	defer func() { watchDecision = nil }()
	forAltShapes(func(name string, cfg Config, sc *Scenario) {
		mustTraceShape(t, cfg, sc)
	})
	if decisions == 0 {
		t.Fatal("no traced decision ran")
	}
}

// treeKeys appends a copy of every dispatch tree's slots to dst.
func treeKeys(s *sim, dst [][]float64) [][]float64 {
	if s.idx != nil {
		dst = append(dst, append([]float64(nil), s.idx.d...))
	}
	for _, cl := range s.classes {
		if cl.idle != nil {
			dst = append(dst, append([]float64(nil), cl.idle.d...), append([]float64(nil), cl.busy.d...))
		}
	}
	return dst
}

// forAltShapes calls f with every traced configuration the alternatives
// tests run: each policy × coordination × shape × seed × alternative
// count.
func forAltShapes(f func(name string, cfg Config, sc *Scenario)) {
	type shape struct {
		name  string
		nodes int // plain runs only
		sc    *Scenario
	}
	_, crowd := flashCrowdChurn()
	hetero := Scenario{
		BaseRatePerS: 4,
		Phases: []Phase{
			{Name: "steady", DurationS: 80},
			{Name: "surge", DurationS: 40, StartFactor: 1.8, AmbientDeltaC: 6},
		},
		Classes: []NodeClass{
			{Name: "big", Count: 4, SprintWidth: 32, BudgetScale: 2, DrainScale: 2},
			{Name: "small", Count: 12, NominalPowerW: 0.5},
		},
		Churn: Churn{MTBFS: 40, MeanDowntimeS: 5},
	}
	shapes := []shape{{"plain", 24, nil}, {"tiny", 4, nil}, {"flashcrowd", 0, &crowd}, {"hetero", 0, &hetero}}
	for _, p := range Policies() {
		for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
			for _, sh := range shapes {
				for _, seed := range equivalenceSeeds {
					for _, k := range []int{1, 3, 8} {
						if sh.name == "tiny" && k != 8 {
							continue
						}
						cfg := DefaultConfig(p)
						cfg.Seed = seed
						cfg.Coordination = c
						if c != NoCoordination {
							cfg.RackSize = 4
						}
						if sh.sc == nil {
							cfg.Nodes = sh.nodes
							cfg.Requests = 800
							cfg.QueueCap = 4
							cfg.ArrivalRatePerS = 1.4 * float64(cfg.Nodes) / cfg.MeanWorkS
						}
						cfg.Trace = TraceConfig{Level: trace.LevelFull, TopK: k}
						f(fmt.Sprintf("%s/%s/%s/seed=%d/k=%d", sh.name, p, c, seed, k), cfg, sh.sc)
					}
				}
			}
		}
	}
}

// testIdleBusyTie builds the one case where the index's order
// and the recorder's differ: least-loaded keys an idle node −Inf but the
// recorder reports it as now, so a busy node whose backlog drains exactly
// now (its completion is due at the arrival's instant and fires after it)
// ties with the idle nodes and the rotation decides. Three nodes; node 0
// serves a long request that completes at T, nodes 1 and 2 finish early,
// and a fourth request arrives at exactly T with the rotation at node 0.
// The selector picks idle node 1; the alternatives must list busy node 0
// (rotation distance 0) before idle node 2.
func testIdleBusyTie(t *testing.T) {
	cfg := DefaultConfig(LeastLoaded)
	cfg.Nodes = 3
	cfg.Trace = TraceConfig{Level: trace.LevelFull, TopK: 3}
	arr := []request{
		{arrivalS: 0, workS: 10},
		{arrivalS: 0.001, workS: 1},
		{arrivalS: 0.002, workS: 1},
	}
	first := traceArrivals(t, cfg, arr)
	doneT := -1.0
	for _, ev := range first.Events("complete") {
		if ev.Req == 0 {
			doneT = ev.AtS
		}
	}
	if doneT <= 0 {
		t.Fatal("request 0 never completed")
	}
	arr = append(arr, request{arrivalS: doneT, workS: 1})
	indexed := traceArrivals(t, cfg, arr)
	refAlts = true
	scanned := traceArrivals(t, cfg, arr)
	refAlts = false
	if !reflect.DeepEqual(indexed, scanned) {
		t.Fatalf("index-driven alternatives diverged from the scan: %s", firstTraceDiff(indexed, scanned))
	}
	decs := indexed.Decisions()
	if len(decs) != 4 {
		t.Fatalf("got %d decisions, want 4", len(decs))
	}
	d := decs[3]
	if d.AtS != doneT || d.Node != 1 {
		t.Fatalf("tie decision at %g on node %d, want %g on node 1", d.AtS, d.Node, doneT)
	}
	if len(d.Alts) != 2 || d.Alts[0].Node != 0 || d.Alts[1].Node != 2 {
		t.Fatalf("tie alternatives %+v, want busy node 0 before idle node 2", d.Alts)
	}
	if d.Alts[0].Key != doneT || d.Alts[1].Key != doneT {
		t.Fatalf("tie alternatives keyed %g and %g, want both at now=%g", d.Alts[0].Key, d.Alts[1].Key, doneT)
	}
}

// testHedgeExcludesOnlyIdle hand-builds a hedged fleet whose one idle
// node is the hedge's excluded node: nodes 0, 1 and 3 are busy draining
// at 3, 1 and 2 s, node 2 is idle and holds the original copy's place.
// The selection excludes node 2 and picks node 1, so the walk finds the
// least-loaded tie set (keys at or before now) holding only the excluded
// node, must pass over it, and must then list the busy nodes by drain
// key: node 3 before node 0, exactly as the scan does.
func testHedgeExcludesOnlyIdle(t *testing.T) {
	record := func() *trace.Trace {
		cfg := DefaultConfig(Hedged)
		cfg.Nodes = 4
		cfg.Requests = 1
		cfg.Trace = TraceConfig{Level: trace.LevelFull, TopK: 3}
		cfg = cfg.withDefaults()
		if err := (Spec{Config: cfg}).Validate(); err != nil {
			t.Fatal(err)
		}
		rec := newRecorder(cfg)
		s := newSim(cfg, nil, rec, nil)
		s.reqs = []request{{workS: 1, doneS: -1, firstNode: 2}}
		for id, drainS := range map[int]float64{0: 3, 1: 1, 3: 2} {
			n := &s.nodes[id]
			n.busy, n.busyUntilS = true, drainS
			s.touch(n)
		}
		start := s.rr
		n := s.selectNode(1, 2)
		if n == nil || n.id != 1 {
			t.Fatalf("hedge excluding node 2 picked %v, want node 1", n)
		}
		rec.decision(s, 0, kindHedge, n, start, 2, true)
		rec.finalize(s)
		return rec.tr
	}
	indexed := record()
	refAlts = true
	scanned := record()
	refAlts = false
	if !reflect.DeepEqual(indexed, scanned) {
		t.Fatalf("index-driven alternatives diverged from the scan: %s", firstTraceDiff(indexed, scanned))
	}
	decs := indexed.Decisions()
	if len(decs) != 1 {
		t.Fatalf("got %d decisions, want 1", len(decs))
	}
	if alts := decs[0].Alts; len(alts) != 2 || alts[0].Node != 3 || alts[1].Node != 0 || alts[0].Key != 2 || alts[1].Key != 3 {
		t.Fatalf("alternatives %+v, want node 3 at 2 then node 0 at 3", alts)
	}
}

// mustTraceShape records a plain run, or a scenario run when sc is set.
func mustTraceShape(t *testing.T, cfg Config, sc *Scenario) *trace.Trace {
	t.Helper()
	var tr *trace.Trace
	var err error
	if sc == nil {
		_, tr, err = Run(context.Background(), Spec{Config: cfg})
	} else {
		_, tr, err = Run(context.Background(), Spec{Config: cfg, Scenario: sc})
	}
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// traceArrivals records a run over a hand-built arrival stream, the way
// simulate runs a generated one.
func traceArrivals(t *testing.T, cfg Config, arr []request) *trace.Trace {
	t.Helper()
	cfg.Requests = len(arr)
	cfg = cfg.withDefaults()
	if err := (Spec{Config: cfg}).Validate(); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(cfg)
	s := newSim(cfg, nil, rec, nil)
	s.reqs = make([]request, len(arr))
	for i, r := range arr {
		s.reqs[i] = request{arrivalS: r.arrivalS, workS: r.workS, doneS: -1, firstNode: -1}
	}
	if _, err := s.start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return rec.tr
}

// firstTraceDiff names the first record where two traces disagree.
func firstTraceDiff(a, b *trace.Trace) string {
	if !reflect.DeepEqual(a.Meta, b.Meta) {
		return fmt.Sprintf("meta %+v vs %+v", a.Meta, b.Meta)
	}
	for i := 0; i < len(a.Records) && i < len(b.Records); i++ {
		if !reflect.DeepEqual(a.Records[i], b.Records[i]) {
			ra, rb := a.Records[i], b.Records[i]
			if ra.Decision != nil && rb.Decision != nil {
				return fmt.Sprintf("record %d: %+v vs %+v", i, *ra.Decision, *rb.Decision)
			}
			return fmt.Sprintf("record %d: %+v vs %+v", i, ra, rb)
		}
	}
	return fmt.Sprintf("record counts %d vs %d", len(a.Records), len(b.Records))
}
