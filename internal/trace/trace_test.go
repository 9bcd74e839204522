package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestLevelRoundTrip(t *testing.T) {
	for _, l := range []Level{LevelOff, LevelDecisions, LevelFull} {
		got, err := ParseLevel(l.String())
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", l.String(), err)
		}
		if got != l {
			t.Fatalf("ParseLevel(%q) = %v, want %v", l.String(), got, l)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel accepted an unknown level")
	}
}

// TestWriteJSONL proves the serialization contract readers depend on:
// a meta header line first, then one valid JSON object per record, in
// record order, each carrying exactly one payload under its tag.
func TestWriteJSONL(t *testing.T) {
	tr := &Trace{
		Meta: Meta{Policy: "sprint-aware", Nodes: 4, Requests: 2, Level: "decisions", WindowS: 5, TopK: 3},
		Records: []Record{
			{T: "decision", AtS: 0.5, Seq: 0, Decision: &Decision{
				Kind: "dispatch", Req: 0, Node: 1, Outcome: "enqueued", Key: 0.5, KeyKind: "budget",
				WorkS: 2, Alts: []Alt{{Node: 2, Key: 0.6, HypoDoneS: 2.7}},
				DoneS: 2.5, BestAlt: 2, BestAltDoneS: 2.7, RegretS: -0.2,
			}},
			{T: "event", AtS: 1, Seq: 1, Event: &Event{Kind: "sprint-start", Node: 1, Rack: -1, Req: -1, Phase: -1, DurS: 1}},
			{T: "sample", AtS: 5, Seq: 2, Sample: &Sample{StartS: 0, EndS: 5, Phase: -1, Completed: 1, ThroughputRPS: 0.2, P50S: 2, P99S: 2, InFlight: 1}},
		},
	}
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", len(lines), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	wantT := []string{"meta", "decision", "event", "sample"}
	for i, m := range lines {
		if m["t"] != wantT[i] {
			t.Fatalf("line %d tag = %v, want %q", i, m["t"], wantT[i])
		}
	}
	if lines[0]["meta"].(map[string]any)["policy"] != "sprint-aware" {
		t.Fatal("meta line lost the policy")
	}
	d := lines[1]["decision"].(map[string]any)
	if d["key_kind"] != "budget" || d["regret_s"] != -0.2 {
		t.Fatalf("decision line mangled: %v", d)
	}
	for i, m := range lines[1:] {
		n := 0
		for _, k := range []string{"decision", "event", "sample"} {
			if _, ok := m[k]; ok {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("record line %d carries %d payloads, want exactly 1", i, n)
		}
	}
}

func TestAccessorsAndTopRegret(t *testing.T) {
	tr := &Trace{Records: []Record{
		{T: "decision", AtS: 1, Decision: &Decision{Kind: "dispatch", Req: 0, Node: 0, DoneS: 4, BestAlt: 1, BestAltDoneS: 3, RegretS: 1}},
		{T: "event", AtS: 2, Event: &Event{Kind: "hedge-win", Req: 0}},
		{T: "decision", AtS: 3, Decision: &Decision{Kind: "hedge", Req: 1, Node: 2, DoneS: -1, BestAlt: -1}},
		{T: "decision", AtS: 4, Decision: &Decision{Kind: "dispatch", Req: 2, Node: 1, DoneS: 9, BestAlt: 0, BestAltDoneS: 4, RegretS: 5}},
		{T: "sample", AtS: 5, Sample: &Sample{EndS: 5}},
		{T: "event", AtS: 6, Event: &Event{Kind: "breaker-trip", Rack: 0}},
	}}
	if got := len(tr.Decisions()); got != 3 {
		t.Fatalf("Decisions() = %d entries, want 3", got)
	}
	if got := len(tr.Samples()); got != 1 {
		t.Fatalf("Samples() = %d entries, want 1", got)
	}
	if got := len(tr.Events()); got != 2 {
		t.Fatalf("Events() = %d entries, want 2", got)
	}
	if got := tr.Events("breaker-trip"); len(got) != 1 || got[0].Kind != "breaker-trip" {
		t.Fatalf("Events(breaker-trip) = %v", got)
	}
	// The unresolved decision (req 1) is excluded; the rest rank by
	// descending regret.
	top := tr.TopRegret(10)
	if len(top) != 2 || top[0].Req != 2 || top[0].RegretS != 5 || top[1].Req != 0 {
		t.Fatalf("TopRegret = %+v", top)
	}
	if got := tr.TopRegret(1); len(got) != 1 || got[0].Req != 2 {
		t.Fatalf("TopRegret(1) = %+v", got)
	}
}

// TestSummarizeMatchesAccessors: one streaming pass over a written
// recording yields the counts, the p99 series and the regret leaderboard
// the in-memory accessors give, ties ranked in record order, at every
// leaderboard size.
func TestSummarizeMatchesAccessors(t *testing.T) {
	tr := genTrace(3000, 4)
	// Equal regrets on both sides of the cut: the leaderboard keeps the
	// earlier records first.
	for i, n := 0, 0; i < len(tr.Records) && n < 6; i++ {
		if d := tr.Records[i].Decision; d != nil {
			d.DoneS, d.RegretS = d.BestAltDoneS+50, 50
			n++
		}
	}
	var b bytes.Buffer
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	var p99 []float64
	for _, sm := range tr.Samples() {
		p99 = append(p99, sm.P99S)
	}
	for _, n := range []int{1, 5, 0} {
		sum, err := Summarize(bytes.NewReader(b.Bytes()), n)
		if err != nil {
			t.Fatal(err)
		}
		want := Summary{Meta: tr.Meta, Records: len(tr.Records), Decisions: len(tr.Decisions()), P99S: p99, TopRegret: tr.TopRegret(n)}
		if !reflect.DeepEqual(sum, want) {
			t.Fatalf("n=%d: Summarize differs from the accessors:\n got %+v\nwant %+v", n, sum.TopRegret, want.TopRegret)
		}
		if n == 5 && (sum.TopRegret[0].Req >= sum.TopRegret[4].Req || sum.TopRegret[4].RegretS != 50) {
			t.Fatalf("ties out of record order: %+v", sum.TopRegret)
		}
	}
	if _, err := Summarize(strings.NewReader(""), 5); err == nil {
		t.Fatal("Summarize accepted an empty recording")
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 1, 2, 3}); got != "▁▃▅█" {
		t.Fatalf("Sparkline ramp = %q", got)
	}
	if got := Sparkline([]float64{2, 2, 2}); got != "▁▁▁" {
		t.Fatalf("flat series = %q", got)
	}
	got := Sparkline([]float64{1, -1, 3})
	if !strings.Contains(got, " ") {
		t.Fatalf("no-data sentinel not rendered as space: %q", got)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty series should render empty")
	}
}
