package fleet

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sprinting/internal/trace"
)

// mustTraced runs cfg with the recorder attached, at LevelDecisions when
// cfg leaves the level off.
func mustTraced(t *testing.T, cfg Config) (Metrics, *trace.Trace) {
	t.Helper()
	m, tr, err := Run(context.Background(), Spec{Config: traced(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return b.Bytes()
}

// TestTraceShardedMatchesSequential extends the sharding contract to the
// flight recorder: the serialized JSONL trace — every decision, event,
// and timeline sample, in order — must be byte-identical at every worker
// count, across the same policy × coordination × shape matrix the
// Metrics contract test runs. A recorder forces the single loop, so
// this pins that a traced run ignores Workers and records the exact
// global event order.
func TestTraceShardedMatchesSequential(t *testing.T) {
	shapes := []struct {
		name     string
		overload float64
		queueCap int
	}{
		{"healthy", 0.9, 256},
		{"overloaded", 1.6, 3},
	}
	for _, sh := range shapes {
		for _, p := range Policies() {
			for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
				cfg := DefaultConfig(p)
				cfg.Nodes = 24
				cfg.Requests = 1500
				cfg.Seed = equivalenceSeeds[0]
				cfg.QueueCap = sh.queueCap
				cfg.ArrivalRatePerS = sh.overload * float64(cfg.Nodes) / cfg.MeanWorkS
				cfg.Coordination = c
				if c != NoCoordination {
					cfg.RackSize = 5 // ragged: 24 nodes → racks of 5,5,5,5,4
				}
				cfg.Trace = TraceConfig{Level: trace.LevelFull}
				seqM, seqTr := mustTraced(t, cfg)
				seqB := traceBytes(t, seqTr)
				for _, w := range workerCounts {
					cfg.Workers = w
					gotM, gotTr := mustTraced(t, cfg)
					if !reflect.DeepEqual(gotM, seqM) {
						t.Errorf("%s/%s/%s workers=%d traced Metrics diverged from sequential", sh.name, p, c, w)
						continue
					}
					if gotB := traceBytes(t, gotTr); !bytes.Equal(gotB, seqB) {
						t.Errorf("%s/%s/%s workers=%d trace bytes diverged from sequential (%d vs %d bytes)",
							sh.name, p, c, w, len(gotB), len(seqB))
					}
				}
			}
		}
	}
}

// TestTraceScenarioShardedMatchesSequential runs the same byte-identity
// contract through the dynamic engine: flash-crowd phases and failure
// churn annotate the trace (phase-start, node-fail/recover, redispatch
// decisions), and the bytes must still match at every worker count.
func TestTraceScenarioShardedMatchesSequential(t *testing.T) {
	for _, c := range []Coordination{NoCoordination, TokenPermit} {
		cfg, sc := flashCrowdChurn()
		cfg.Coordination = c
		if c != NoCoordination {
			cfg.RackSize = 5
		}
		cfg.Trace = TraceConfig{Level: trace.LevelDecisions}
		seqM, seqTr, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc})
		if err != nil {
			t.Fatal(err)
		}
		seqB := traceBytes(t, seqTr)
		for _, w := range workerCounts {
			cfg.Workers = w
			gotM, gotTr, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotM, seqM) {
				t.Errorf("%s workers=%d traced scenario Metrics diverged", c, w)
			}
			if gotB := traceBytes(t, gotTr); !bytes.Equal(gotB, seqB) {
				t.Errorf("%s workers=%d scenario trace bytes diverged", c, w)
			}
		}
	}
}

// TestTracedMetricsUnchanged is the observation-only contract: attaching
// the recorder must not perturb the simulation — the traced run's
// Metrics equal the untraced run's exactly, for every policy and
// coordination, plain and scenario mode, whatever the trace knobs say.
func TestTracedMetricsUnchanged(t *testing.T) {
	for _, p := range Policies() {
		for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
			cfg := DefaultConfig(p)
			cfg.Nodes = 24
			cfg.Requests = 1200
			cfg.ArrivalRatePerS = 1.1 * float64(cfg.Nodes) / cfg.MeanWorkS
			cfg.Coordination = c
			if c != NoCoordination {
				cfg.RackSize = 6
			}
			plain := mustSimulate(t, cfg)
			cfg.Trace = TraceConfig{Level: trace.LevelFull, TopK: 5, WindowS: 2}
			traced, _ := mustTraced(t, cfg)
			if !reflect.DeepEqual(plain, traced) {
				t.Errorf("%s/%s: traced Metrics differ from untraced", p, c)
			}
		}
	}
	cfg, sc := flashCrowdChurn()
	plain := mustScenario(t, cfg, sc)
	cfg.Trace = TraceConfig{Level: trace.LevelDecisions}
	traced, _, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("scenario: traced Metrics differ from untraced")
	}
	// A config that only differs in its trace knobs: the recorder at the
	// full level and a 1 s window still leaves Metrics untouched.
	cfg = DefaultConfig(LeastLoaded)
	cfg.Requests = 400
	base := mustSimulate(t, cfg)
	cfg.Trace = TraceConfig{Level: trace.LevelFull, TopK: 8, WindowS: 1}
	if got, _ := mustTraced(t, cfg); !reflect.DeepEqual(got, base) {
		t.Error("full-level recorder changed the run's Metrics")
	}
}

// TestTraceSchema checks the recorded stream's internal consistency on a
// coordinated sprint-aware run: decision coverage and key kinds, sample
// timeline arithmetic, counterfactual causality (no alternative resolves
// before its decision), and the regret identity.
func TestTraceSchema(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 20
	cfg.Requests = 2000
	cfg.ArrivalRatePerS = 1.3 * float64(cfg.Nodes) / cfg.MeanWorkS
	cfg.Coordination = Uncoordinated
	cfg.RackSize = 5
	cfg.Trace = TraceConfig{TopK: 3, WindowS: 4}
	m, tr := mustTraced(t, cfg)

	if tr.Meta.Policy != "sprint-aware" || tr.Meta.Nodes != 20 || tr.Meta.Racks != 4 ||
		tr.Meta.Level != "decisions" || tr.Meta.TopK != 3 || tr.Meta.WindowS != 4 {
		t.Fatalf("meta mangled: %+v", tr.Meta)
	}

	decs := tr.Decisions()
	if len(decs) != cfg.Requests {
		t.Fatalf("got %d decisions for %d arrivals", len(decs), cfg.Requests)
	}
	enq, drop := 0, 0
	for _, d := range decs {
		switch d.Outcome {
		case "enqueued":
			enq++
		case "dropped":
			drop++
		default:
			t.Fatalf("unknown outcome %q", d.Outcome)
		}
		if d.KeyKind != "budget" {
			t.Fatalf("sprint-aware decision carries key kind %q", d.KeyKind)
		}
		if len(d.Alts) > cfg.Trace.TopK {
			t.Fatalf("decision records %d alts, topk=%d", len(d.Alts), cfg.Trace.TopK)
		}
		for _, a := range d.Alts {
			if a.Node == d.Node {
				t.Fatal("chosen node recorded as its own alternative")
			}
			if a.HypoDoneS >= 0 && a.HypoDoneS < d.AtS {
				t.Fatalf("alternative resolved before its decision: hypo %g < at %g", a.HypoDoneS, d.AtS)
			}
		}
		if d.BestAlt >= 0 && d.DoneS >= 0 {
			if got := d.DoneS - d.BestAltDoneS; got != d.RegretS {
				t.Fatalf("regret identity broken: %g != %g", got, d.RegretS)
			}
		}
	}
	if drop != m.Dropped {
		t.Errorf("dropped decisions %d != Metrics.Dropped %d", drop, m.Dropped)
	}
	if enq+drop != m.Requests {
		t.Errorf("decision outcomes %d+%d don't cover %d requests", enq, drop, m.Requests)
	}

	samples := tr.Samples()
	if len(samples) == 0 {
		t.Fatal("no timeline samples")
	}
	done := 0
	for i, sm := range samples {
		done += sm.Completed
		if sm.EndS <= sm.StartS {
			t.Fatalf("sample %d window inverted: (%g, %g]", i, sm.StartS, sm.EndS)
		}
		if sm.InFlight < 0 || sm.Sprints < 0 {
			t.Fatalf("sample %d gauges negative: %+v", i, sm)
		}
		if len(sm.RackDrawW) != 4 || len(sm.RackBufferJ) != 4 {
			t.Fatalf("sample %d missing per-rack series: %+v", i, sm)
		}
		if sm.Completed == 0 && (sm.P50S != -1 || sm.P99S != -1) {
			t.Fatalf("sample %d: empty window carries quantiles", i)
		}
		if sm.Completed > 0 && sm.P99S < sm.P50S {
			t.Fatalf("sample %d: p99 %g < p50 %g", i, sm.P99S, sm.P50S)
		}
	}
	if done != m.Completed {
		t.Errorf("samples account for %d completions, Metrics.Completed=%d", done, m.Completed)
	}

	if evs := tr.Events("sprint-start"); len(evs) == 0 {
		t.Error("no sprint-start events on a sprinting fleet")
	}
	starts, ends := len(tr.Events("sprint-start")), len(tr.Events("sprint-end"))
	if starts != ends {
		t.Errorf("sprint start/end imbalance: %d vs %d", starts, ends)
	}
}

// TestTraceLevels separates the capture depths: decisions-level streams
// carry no per-request service events, full-level streams do, and the
// hedged policy's lifecycle events appear where they should.
func TestTraceLevels(t *testing.T) {
	cfg := DefaultConfig(Hedged)
	cfg.Nodes = 8
	cfg.Requests = 800
	cfg.ArrivalRatePerS = 1.4 * float64(cfg.Nodes) / cfg.MeanWorkS
	cfg.QueueCap = 4

	cfg.Trace = TraceConfig{Level: trace.LevelDecisions}
	m, tr := mustTraced(t, cfg)
	if n := len(tr.Events("service-start", "complete")); n != 0 {
		t.Fatalf("decisions level leaked %d full-level events", n)
	}
	hedges := 0
	for _, d := range tr.Decisions() {
		if d.Kind == "hedge" {
			hedges++
			if d.KeyKind != "drain" {
				t.Fatalf("hedged decision key kind %q", d.KeyKind)
			}
		}
	}
	if hedges != m.HedgesIssued {
		t.Errorf("hedge decisions %d != HedgesIssued %d", hedges, m.HedgesIssued)
	}
	if got := len(tr.Events("hedge-win")); got != m.HedgeWins {
		t.Errorf("hedge-win events %d != HedgeWins %d", got, m.HedgeWins)
	}
	if got := len(tr.Events("hedge-suppress")); got != m.HedgesSuppressed {
		t.Errorf("hedge-suppress events %d != HedgesSuppressed %d", got, m.HedgesSuppressed)
	}

	cfg.Trace.Level = trace.LevelFull
	m2, tr2 := mustTraced(t, cfg)
	if got := len(tr2.Events("complete")); got != m2.Completed {
		t.Errorf("full-level complete events %d != Completed %d", got, m2.Completed)
	}
	if got := len(tr2.Events("service-start")); got == 0 {
		t.Error("full level recorded no service starts")
	}
}

// TestTraceScenarioAnnotations checks the dynamic-run records: one
// phase-start per later phase, churn events matching the metrics, and
// timeline samples attributed to the phase active at their boundary.
func TestTraceScenarioAnnotations(t *testing.T) {
	cfg, sc := flashCrowdChurn()
	cfg.Trace = TraceConfig{Level: trace.LevelDecisions, WindowS: 10}
	m, tr, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Events("phase-start")); got != len(sc.Phases)-1 {
		t.Errorf("phase-start events %d, want %d", got, len(sc.Phases)-1)
	}
	for _, ev := range tr.Events("phase-start") {
		if ev.Name == "" {
			t.Error("phase-start event lost its phase name")
		}
	}
	if got := len(tr.Events("node-fail")); got != m.NodeFailures {
		t.Errorf("node-fail events %d != NodeFailures %d", got, m.NodeFailures)
	}
	if got := len(tr.Events("node-recover")); got != m.NodeRecoveries {
		t.Errorf("node-recover events %d != NodeRecoveries %d", got, m.NodeRecoveries)
	}
	redisp := 0
	phased := false
	for _, d := range tr.Decisions() {
		if d.Kind == "redispatch" {
			redisp++
		}
		if d.Phase > 0 {
			phased = true
		}
	}
	// Redispatch decisions cover both outcomes; Metrics.Redispatches only
	// counts the enqueued ones, so the records can't be fewer.
	if redisp < m.Redispatches {
		t.Errorf("redispatch decisions %d < Metrics.Redispatches %d", redisp, m.Redispatches)
	}
	for _, sm := range tr.Samples() {
		if sm.Phase < 0 || sm.Phase >= len(sc.Phases) {
			t.Fatalf("sample carries out-of-range phase %d", sm.Phase)
		}
		if sm.Phase > 0 {
			phased = true
		}
	}
	if !phased {
		t.Error("no record ever left phase 0 across a three-phase scenario")
	}
}

// TestTraceValidate covers the new Config surface's error handling.
func TestTraceValidate(t *testing.T) {
	bad := []Config{
		func() Config { c := DefaultConfig(RoundRobin); c.Trace.Level = trace.Level(9); return c }(),
		func() Config { c := DefaultConfig(RoundRobin); c.Trace.TopK = -1; return c }(),
		func() Config { c := DefaultConfig(RoundRobin); c.Trace.WindowS = -2; return c }(),
	}
	for i, cfg := range bad {
		if _, _, err := Run(context.Background(), Spec{Config: cfg}); err == nil {
			t.Errorf("bad trace config %d accepted", i)
		}
	}
}

// TestTraceRoundRobinKeys pins the state-blind policy's record shape:
// rotation key kind, the chosen node as the key, and no alternatives
// (round-robin rejects nothing on merit, so counterfactuals would be
// noise).
func TestTraceRoundRobinKeys(t *testing.T) {
	cfg := DefaultConfig(RoundRobin)
	cfg.Requests = 300
	_, tr := mustTraced(t, cfg)
	for _, d := range tr.Decisions() {
		if d.KeyKind != "rotation" {
			t.Fatalf("round-robin key kind %q", d.KeyKind)
		}
		if len(d.Alts) != 0 {
			t.Fatal("round-robin decision recorded alternatives")
		}
		if d.Node >= 0 && d.Key != float64(d.Node) {
			t.Fatalf("rotation key %g != chosen node %d", d.Key, d.Node)
		}
	}
}

// TestTraceJSONLWellFormed serializes a rack-coordinated probabilistic
// run — the config most likely to surface a non-finite float — and
// checks every line parses and no ±Inf/NaN leaked into the stream.
func TestTraceJSONLWellFormed(t *testing.T) {
	cfg := DefaultConfig(LeastLoaded)
	cfg.Nodes = 15
	cfg.Requests = 1000
	cfg.ArrivalRatePerS = 1.2 * float64(cfg.Nodes) / cfg.MeanWorkS
	cfg.Coordination = Probabilistic
	cfg.RackSize = 4
	cfg.Trace = TraceConfig{Level: trace.LevelFull, WindowS: 3}
	_, tr := mustTraced(t, cfg)
	b := traceBytes(t, tr)
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	if len(lines) != len(tr.Records)+1 {
		t.Fatalf("%d JSONL lines for %d records + meta", len(lines), len(tr.Records))
	}
	s := string(b)
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(s, bad) {
			i := strings.Index(s, bad)
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("non-finite float leaked into JSONL near %q", s[lo:i+len(bad)])
		}
	}
	if !bytes.HasPrefix(b, []byte(`{"t":"meta"`)) {
		t.Fatalf("stream does not lead with the meta line: %s", lines[0][:40])
	}
}

// TestTraceJSONLRoundTrip reads real full-level recordings back through
// the JSONL codec — every policy × coordination over a flash crowd with
// failure churn, rack power buffers and named phases — and requires the
// records to come back identical and re-encode to the same bytes.
func TestTraceJSONLRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		for _, c := range append([]Coordination{NoCoordination}, Coordinations()...) {
			cfg, sc := flashCrowdChurn()
			cfg.Policy = p
			cfg.Coordination = c
			if c != NoCoordination {
				cfg.RackSize = 4
			}
			cfg.Trace = TraceConfig{Level: trace.LevelFull, WindowS: 4}
			_, tr, err := Run(context.Background(), Spec{Config: cfg, Scenario: &sc})
			if err != nil {
				t.Fatal(err)
			}
			b := traceBytes(t, tr)
			got, err := trace.ReadJSONL(bytes.NewReader(b))
			if err != nil {
				t.Fatalf("%s/%s: ReadJSONL: %v", p, c, err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Errorf("%s/%s: recording did not round-trip: %s", p, c, firstTraceDiff(got, tr))
				continue
			}
			if !bytes.Equal(traceBytes(t, got), b) {
				t.Errorf("%s/%s: re-encoding changed the bytes", p, c)
			}
		}
	}
}

// TestTraceCounterfactualIdleExact pins the probe semantics on the
// cleanest case there is: two idle nodes, one request. The rejected
// alternative is idle, so its counterfactual resolves immediately — and
// must equal the realized completion exactly, for zero regret (both
// nodes are identical).
func TestTraceCounterfactualIdleExact(t *testing.T) {
	cfg := DefaultConfig(SprintAware)
	cfg.Nodes = 2
	cfg.Requests = 1
	cfg.ArrivalRatePerS = 0.1
	_, tr := mustTraced(t, cfg)
	decs := tr.Decisions()
	if len(decs) != 1 {
		t.Fatalf("got %d decisions", len(decs))
	}
	d := decs[0]
	if len(d.Alts) != 1 {
		t.Fatalf("got %d alts on a 2-node fleet", len(d.Alts))
	}
	if d.DoneS < 0 || d.BestAlt < 0 {
		t.Fatalf("counterfactual unresolved: %+v", d.Decision)
	}
	if d.RegretS != 0 {
		t.Fatalf("identical idle twin should have zero regret, got %g (done %g, alt %g)",
			d.RegretS, d.DoneS, d.BestAltDoneS)
	}
	if fmt.Sprintf("%.9f", d.BestAltDoneS) != fmt.Sprintf("%.9f", d.DoneS) {
		t.Fatalf("alt completion %g != realized %g", d.BestAltDoneS, d.DoneS)
	}
}
