package fleet

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"testing"

	"sprinting/internal/trace"
)

// TestTraceStreamMatchesCollected pins the recorder's two sinks to one
// recording: a run streamed to TraceConfig.Writer writes exactly the bytes
// WriteJSONL writes for the same run collected in memory, returns no
// trace, and reports the same Metrics. The streamed sink recycles every
// payload it has written, so a record handed out again before its last
// reader is done shows up here. The matrix covers every policy ×
// coordination at both levels on an overloaded fleet with drops, a churn
// scenario whose node failures abort pending probes, and a hedged churn
// run with hedges and redispatches.
func TestTraceStreamMatchesCollected(t *testing.T) {
	type tcase struct {
		name string
		spec Spec
	}
	var cases []tcase
	for _, lvl := range []trace.Level{trace.LevelDecisions, trace.LevelFull} {
		for _, p := range Policies() {
			for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
				cfg := DefaultConfig(p)
				cfg.Nodes = 24
				cfg.Requests = 1500
				cfg.QueueCap = 4
				cfg.ArrivalRatePerS = 1.3 * float64(cfg.Nodes) / cfg.MeanWorkS
				cfg.Coordination = c
				if c != NoCoordination {
					cfg.RackSize = 5
				}
				cfg.Trace = TraceConfig{Level: lvl, WindowS: 2}
				cases = append(cases, tcase{lvl.String() + "/" + p.String() + "/" + c.String(), Spec{Config: cfg}})
			}
		}
	}
	for _, p := range []Policy{LeastLoaded, Hedged} {
		cfg, sc := flashCrowdChurn()
		cfg.Policy = p
		sc.Churn.MTBFS = 5
		cfg.Trace = TraceConfig{Level: trace.LevelFull}
		cases = append(cases, tcase{"churn/" + p.String(), Spec{Config: cfg, Scenario: &sc}})
	}
	aborted, churnKinds := 0, map[string]int{}
	for _, tc := range cases {
		m, tr, err := Run(context.Background(), tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := traceBytes(t, tr)
		var got bytes.Buffer
		spec := tc.spec
		spec.Config.Trace.Writer = &got
		sm, str, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s streamed: %v", tc.name, err)
		}
		if str != nil {
			t.Errorf("%s: a streamed run returned a trace", tc.name)
		}
		if !reflect.DeepEqual(sm, m) {
			t.Errorf("%s: streamed Metrics differ from collected", tc.name)
		}
		if !bytes.Equal(got.Bytes(), want) {
			gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if !bytes.Equal(gl[i], wl[i]) {
					t.Errorf("%s: streamed line %d differs:\n got %s\nwant %s", tc.name, i+1, gl[i], wl[i])
					break
				}
			}
			t.Errorf("%s: streamed %d bytes, collected %d", tc.name, got.Len(), len(want))
		}
		if tc.spec.Scenario == nil {
			continue
		}
		for _, d := range tr.Decisions() {
			churnKinds[d.Kind]++
			for _, a := range d.Alts {
				if a.HypoDoneS < 0 {
					aborted++
				}
			}
		}
	}
	// The churn cases must reach the paths they are here for: a probe a
	// node failure aborted leaves its alternative unresolved in a drained
	// run, and churn under hedging makes hedges and redispatches.
	if aborted == 0 || churnKinds["hedge"] == 0 || churnKinds["redispatch"] == 0 {
		t.Errorf("churn cases: %d aborted probes, decisions %v; want aborts, hedges and redispatches", aborted, churnKinds)
	}
}

// TestTraceHoldBounded pins the recorder's memory to in-flight state:
// doubling the requests at a fixed arrival rate doubles the records a
// streamed run emits but leaves the ring's chunks, the most records it
// ever spanned, within 10%, since a record waits only for the decisions
// still in flight before it.
func TestTraceHoldBounded(t *testing.T) {
	hold := func(requests int) (chunks int, emitted uint64) {
		cfg := DefaultConfig(SprintAware)
		cfg.Nodes = 32
		cfg.Requests = requests
		cfg.Seed = 3
		cfg.ArrivalRatePerS = 0.9 * float64(cfg.Nodes) / cfg.MeanWorkS
		cfg.Trace = TraceConfig{Level: trace.LevelFull, Writer: io.Discard}
		_, rec, err := runSpec(context.Background(), Spec{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return len(rec.ring.chunks), rec.seq
	}
	c1, n1 := hold(20000)
	c2, n2 := hold(40000)
	t.Logf("20000 requests: %d records, %d ring chunks; 40000 requests: %d records, %d ring chunks", n1, c1, n2, c2)
	if n2 < 19*n1/10 {
		t.Fatalf("doubling the requests emitted %d then %d records; the test needs the recording to double", n1, n2)
	}
	if float64(c2) > 1.1*float64(c1) {
		t.Errorf("ring high-water grew from %d to %d chunks of %d records when the run doubled; want within 10%%", c1, c2, fifoChunk)
	}
}
