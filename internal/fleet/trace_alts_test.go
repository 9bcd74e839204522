package fleet

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"sprinting/internal/trace"
)

// TestIndexedAltsMatchScan is the recorder's cross-implementation oracle:
// the alternatives taken from the dispatch index by repeated argmin must
// record exactly the trace the retained O(N) scan records — same nodes,
// same order, same keys, same probes — for every policy × coordination,
// on a plain overloaded run (full queues), a flash crowd with failure
// churn (dead nodes and redispatches), and a heterogeneous fleet (one
// index segment per class), at several seeds and alternative counts —
// plus a hand-built least-loaded stream that hits the one order the index
// does not share with the recorder (testIdleBusyTie).
func TestIndexedAltsMatchScan(t *testing.T) {
	if refAlts {
		t.Fatal("refAlts already set")
	}
	t.Run("least-loaded/idle-busy-tie", testIdleBusyTie)
	type shape struct {
		name string
		sc   *Scenario
	}
	_, crowd := flashCrowdChurn()
	hetero := Scenario{
		BaseRatePerS: 4,
		Phases: []Phase{
			{Name: "steady", DurationS: 80},
			{Name: "surge", DurationS: 40, StartFactor: 1.8},
		},
		Classes: []NodeClass{
			{Name: "big", Count: 4, SprintWidth: 32, BudgetScale: 2, DrainScale: 2},
			{Name: "small", Count: 12, NominalPowerW: 0.5},
		},
		Churn: Churn{MTBFS: 40, MeanDowntimeS: 5},
	}
	shapes := []shape{{"plain", nil}, {"flashcrowd", &crowd}, {"hetero", &hetero}}
	for _, p := range Policies() {
		for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
			for _, sh := range shapes {
				for _, seed := range equivalenceSeeds {
					for _, k := range []int{1, 3, 8} {
						cfg := DefaultConfig(p)
						cfg.Seed = seed
						cfg.Coordination = c
						if c != NoCoordination {
							cfg.RackSize = 4
						}
						if sh.sc == nil {
							cfg.Nodes = 24
							cfg.Requests = 800
							cfg.QueueCap = 4
							cfg.ArrivalRatePerS = 1.4 * float64(cfg.Nodes) / cfg.MeanWorkS
						}
						cfg.Trace = TraceConfig{Level: trace.LevelFull, TopK: k}
						name := fmt.Sprintf("%s/%s/%s/seed=%d/k=%d", sh.name, p, c, seed, k)
						indexed := mustTraceShape(t, cfg, sh.sc)
						refAlts = true
						scanned := mustTraceShape(t, cfg, sh.sc)
						refAlts = false
						if !reflect.DeepEqual(indexed, scanned) {
							t.Errorf("%s: index-driven alternatives diverged from the scan: %s", name, firstTraceDiff(indexed, scanned))
						}
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
