package trace_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"sprinting/internal/fleet"
	"sprinting/internal/trace"
)

// TestRecorderLinesTakeFastPath: every decision and event line the fleet
// recorder streams must take the reader's line fast path. A layout the
// fast path no longer matches would fall through to the general parser,
// pass every other test and lose the speed; this records a reduced
// trace_replay benchmark run — sprint-aware token-permit dispatch over a
// flash crowd with node churn, at full level — and feeds each line to the
// fast path directly. The whole recording must also decode to the same
// trace with and without it, and every kind, outcome and key kind in it
// must be a fixed spelling the fast path reads without the intern table.
func TestRecorderLinesTakeFastPath(t *testing.T) {
	cfg := fleet.DefaultConfig(fleet.SprintAware)
	cfg.Nodes = 100
	cfg.Seed = 2
	cfg.Coordination = fleet.TokenPermit
	sc := fleet.Scenario{
		BaseRatePerS: 45,
		Phases: []fleet.Phase{
			{Name: "baseline", DurationS: 15, StartFactor: 0.7},
			{Name: "surge", DurationS: 10, StartFactor: 1.4, AmbientDeltaC: 10},
			{Name: "recovery", DurationS: 15, Shape: fleet.ShapeDecay, StartFactor: 1.4, EndFactor: 0.5},
		},
		Churn: fleet.Churn{MTBFS: 20, MeanDowntimeS: 5},
	}
	var buf bytes.Buffer
	cfg.Trace = fleet.TraceConfig{Level: trace.LevelFull, Writer: &buf}
	if _, _, err := fleet.Run(context.Background(), fleet.Spec{Config: cfg, Scenario: &sc}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	fast := trace.FastLine()
	seen := map[string]int{}
	for _, line := range bytes.SplitAfter(data, []byte("\n"))[1:] {
		var tag string
		switch {
		case bytes.HasPrefix(line, []byte(`{"t":"decision"`)):
			tag = "decision"
		case bytes.HasPrefix(line, []byte(`{"t":"event"`)):
			tag = "event"
			if bytes.Contains(line, []byte(`"name":`)) {
				tag = "named event"
			}
		default:
			continue
		}
		seen[tag]++
		if !fast(line) {
			t.Fatalf("a recorder %s line left the fast path:\n%s", tag, line)
		}
	}
	t.Logf("%d bytes, lines on the fast path: %v", len(data), seen)
	for _, tag := range []string{"decision", "event", "named event"} {
		if seen[tag] == 0 {
			t.Errorf("the recording holds no %s line; the test needs every shape", tag)
		}
	}
	got, err := trace.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.ReadJSONLGeneral(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the recording decodes differently through the general parser")
	}
	for _, r := range got.Records {
		var words []string
		switch {
		case r.Decision != nil:
			words = []string{r.Decision.Kind, r.Decision.Outcome, r.Decision.KeyKind}
		case r.Event != nil:
			words = []string{r.Event.Kind}
		}
		for _, w := range words {
			if !trace.IsSpelling(w) {
				t.Fatalf("record %d: %q is not a fixed spelling", r.Seq, w)
			}
		}
	}
}
