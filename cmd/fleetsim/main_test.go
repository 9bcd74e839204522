package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"

	"sprinting"
)

// runOut drives the command and returns (stdout, exit code).
func runOut(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	if code != 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return out.String(), code
}

func TestSmoke(t *testing.T) {
	out, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fleet: 4 nodes", "sprint-aware", "p999"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAllPoliciesListed(t *testing.T) {
	out, code := runOut(t, "-nodes", "4", "-requests", "300")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"round-robin", "least-loaded", "sprint-aware", "hedged"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing policy %q", want)
		}
	}
}

// TestWorkerCountDoesNotChangeOutput is the binary-level determinism
// guarantee: simulations are pure functions of their configs and the
// engine returns results in config order, so serial and parallel sweeps
// render byte-identical reports.
func TestWorkerCountDoesNotChangeOutput(t *testing.T) {
	args := []string{"-nodes", "32", "-requests", "3000", "-seed", "9"}
	serial, code := runOut(t, append(args, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	wide, code := runOut(t, append(args, "-workers", "8")...)
	if code != 0 {
		t.Fatalf("wide exit %d", code)
	}
	if serial != wide {
		t.Errorf("workers=1 and workers=8 differ:\n--- serial ---\n%s\n--- wide ---\n%s", serial, wide)
	}
}

func TestBadFlagsFail(t *testing.T) {
	if _, code := runOut(t, "-bogus"); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-policy", "nope"); code != 2 {
		t.Errorf("bad policy should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-nodes", "-3"); code != 1 {
		t.Errorf("invalid config should exit 1, got %d", code)
	}
}

// TestInvalidSpecAnnouncesNothing: an invalid config fails before the
// header is printed, and a sweep of four policies reports the error once,
// not once per sweep point.
func TestInvalidSpecAnnouncesNothing(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-nodes", "-3", "-policy", "all"}, &out, &errb)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("stdout %q, want nothing", out.String())
	}
	if want := "fleetsim: fleet: need at least one node\n"; errb.String() != want {
		t.Errorf("stderr %q, want %q", errb.String(), want)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	if code := run(ctx, []string{"-nodes", "16", "-requests", "50000"}, &out, &errb); code != 1 {
		t.Errorf("cancelled run should exit 1, got %d", code)
	}
}

// TestRackCoordinationSmoke drives the rack power-domain mode: the report
// switches to the coordination columns and shows the headline contrast
// (uncoordinated trips, token-permit never).
func TestRackCoordinationSmoke(t *testing.T) {
	out, code := runOut(t, "-nodes", "16", "-requests", "2000", "-policy", "sprint-aware",
		"-coordination", "all", "-rack-size", "16", "-rack-budget-w", "31", "-rate", "9.6")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"uncoordinated", "token-permit", "probabilistic", "trips", "rack-thr(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRackWorkerCountDoesNotChangeOutput extends the binary-level
// determinism guarantee to rack coordination: the probabilistic admission
// stream is part of the per-simulation state, so serial and parallel
// sweeps render byte-identical reports.
func TestRackWorkerCountDoesNotChangeOutput(t *testing.T) {
	args := []string{"-nodes", "32", "-requests", "2000", "-seed", "9",
		"-coordination", "all", "-rack-size", "16", "-rack-budget-w", "31"}
	serial, code := runOut(t, append(args, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	wide, code := runOut(t, append(args, "-workers", "8")...)
	if code != 0 {
		t.Fatalf("wide exit %d", code)
	}
	if serial != wide {
		t.Errorf("workers=1 and workers=8 differ:\n--- serial ---\n%s\n--- wide ---\n%s", serial, wide)
	}
}

func TestBadRackFlagsFail(t *testing.T) {
	if _, code := runOut(t, "-coordination", "nope"); code != 2 {
		t.Errorf("bad coordination should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-coordination", "uncoordinated", "-rack-size", "-2"); code != 1 {
		t.Errorf("invalid rack config should exit 1, got %d", code)
	}
}

// TestHedgeSuppressionReported drives an overloaded hedged fleet and
// checks the suppressed-hedge count reaches the report (the bugfix for
// hedges that silently vanished when no node had spare capacity).
func TestHedgeSuppressionReported(t *testing.T) {
	out, code := runOut(t, "-nodes", "4", "-requests", "2000", "-policy", "hedged",
		"-queue", "2", "-rate", "4")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "suppressed (no spare capacity)") {
		t.Errorf("output missing the suppressed-hedge count:\n%s", out)
	}
}

// TestProfileFlags exercises -cpuprofile/-memprofile on a sweep and on a
// -convert-trace conversion: both files must be created non-empty and
// the run must still succeed.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.jsonl")
	if _, code := runOut(t, "-nodes", "4", "-requests", "200", "-policy", "sprint-aware", "-trace", rec); code != 0 {
		t.Fatalf("record exit %d", code)
	}
	for _, c := range []struct {
		name string
		args []string
	}{
		{"sweep", []string{"-nodes", "4", "-requests", "500", "-policy", "least-loaded"}},
		{"conversion", []string{"-convert-trace", rec, "-replay-out", filepath.Join(dir, "trace.csv")}},
	} {
		cpu := filepath.Join(dir, c.name+".cpu.pprof")
		mem := filepath.Join(dir, c.name+".mem.pprof")
		if _, code := runOut(t, append(c.args, "-cpuprofile", cpu, "-memprofile", mem)...); code != 0 {
			t.Fatalf("%s: exit %d", c.name, code)
		}
		for _, p := range []string{cpu, mem} {
			st, err := os.Stat(p)
			if err != nil {
				t.Fatalf("%s: profile %s missing: %v", c.name, p, err)
			}
			if st.Size() == 0 {
				t.Errorf("%s: profile %s is empty", c.name, p)
			}
		}
	}
}

// TestExactQuantilesFlag: the flag must parse and the sweep still run;
// with a small trace both modes are exact so the output is unchanged.
func TestExactQuantilesFlag(t *testing.T) {
	base, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	exact, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware", "-exact-quantiles")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if base != exact {
		t.Errorf("small traces are exact either way; output differed:\n%s\n---\n%s", base, exact)
	}
}

// TestIncoherentFlagCombinationsRejected pins the flag-coherence errors:
// a flag that parameterizes a subsystem the other flags switched off is
// rejected loudly instead of silently ignored.
func TestIncoherentFlagCombinationsRejected(t *testing.T) {
	cases := [][]string{
		{"-permits", "4"}, // permits without token-permit
		{"-permits", "4", "-coordination", "uncoordinated"},
		{"-rack-size", "16"}, // rack flags without coordination
		{"-rack-budget-w", "31"},
		{"-rack-buffer-j", "50"},
		{"-recovery-s", "3"},
		{"-hedge-s", "0.5", "-policy", "sprint-aware"}, // hedge delay without hedging
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: want exit 2, got %d (stderr: %s)", args, code, errb.String())
		}
	}
	// The same flags are accepted when the subsystem is on (or "all"
	// includes it).
	good := [][]string{
		{"-nodes", "4", "-requests", "200", "-permits", "2", "-coordination", "token-permit"},
		{"-nodes", "4", "-requests", "200", "-permits", "2", "-coordination", "all", "-policy", "sprint-aware"},
		{"-nodes", "4", "-requests", "200", "-hedge-s", "0.5", "-policy", "hedged"},
		{"-nodes", "4", "-requests", "200", "-rack-size", "4", "-coordination", "uncoordinated", "-policy", "sprint-aware"},
	}
	for _, args := range good {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 0 {
			t.Errorf("%v: want exit 0, got %d (stderr: %s)", args, code, errb.String())
		}
	}
}

// writeScenario drops a scenario file for the CLI tests.
func writeScenario(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const flashScenario = `{
  "base_rate_per_s": 7.2,
  "phases": [
    {"name": "baseline", "duration_s": 60, "start_factor": 0.7},
    {"name": "surge", "duration_s": 40, "start_factor": 2.0},
    {"name": "recovery", "duration_s": 60, "shape": "decay", "start_factor": 2.0, "end_factor": 0.5}
  ],
  "churn": {"mtbf_s": 20, "mean_downtime_s": 5}
}`

// TestScenarioMode drives -scenario end to end: the report switches to
// per-phase sections with the scenario's phase names and an overall line.
func TestScenarioMode(t *testing.T) {
	p := writeScenario(t, flashScenario)
	out, code := runOut(t, "-scenario", p, "-policy", "sprint-aware")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"3 phases over 160 s", "baseline", "surge", "recovery", "overall:", "failures", "redisp"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario report missing %q:\n%s", want, out)
		}
	}
}

// TestScenarioWorkerCountDoesNotChangeOutput is the acceptance-criteria
// determinism check at the binary level: a flash-crowd + churn scenario
// sweep renders byte-identical reports at every worker count.
func TestScenarioWorkerCountDoesNotChangeOutput(t *testing.T) {
	p := writeScenario(t, flashScenario)
	args := []string{"-scenario", p, "-policy", "all", "-coordination", "all", "-seed", "9"}
	serial, code := runOut(t, append(args, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	wide, code := runOut(t, append(args, "-workers", "8")...)
	if code != 0 {
		t.Fatalf("wide exit %d", code)
	}
	if serial != wide {
		t.Errorf("workers=1 and workers=8 differ:\n--- serial ---\n%s\n--- wide ---\n%s", serial, wide)
	}
}

// TestScenarioFlagErrors: the scenario file owns the load profile, so
// -requests/-rate are rejected; unreadable files, malformed JSON, unknown
// fields, and invalid scenarios all fail with distinct diagnostics.
func TestScenarioFlagErrors(t *testing.T) {
	p := writeScenario(t, flashScenario)
	if _, code := runOut(t, "-scenario", p, "-requests", "100"); code != 2 {
		t.Errorf("-scenario with -requests should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-scenario", p, "-rate", "3"); code != 2 {
		t.Errorf("-scenario with -rate should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-scenario", filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("missing scenario file should exit 1, got %d", code)
	}
	if _, code := runOut(t, "-scenario", writeScenario(t, "{not json")); code != 1 {
		t.Errorf("malformed JSON should exit 1, got %d", code)
	}
	if _, code := runOut(t, "-scenario", writeScenario(t, `{"phases": [{"duration_s": 10}], "bogus_field": 1}`)); code != 1 {
		t.Errorf("unknown scenario field should exit 1, got %d", code)
	}
	if _, code := runOut(t, "-scenario", writeScenario(t, `{"phases": []}`)); code != 1 {
		t.Errorf("phase-free scenario should exit 1, got %d", code)
	}
}

// TestTrailingJSONRefused: a scenario or workload file holding anything
// after its one JSON value — a second value, stray text, unmatched
// brackets — exits 1 with one diagnostic naming the file and prints
// nothing, rather than running on the first value.
func TestTrailingJSONRefused(t *testing.T) {
	scen := `{"phases": [{"duration_s": 10}]}`
	work := strings.TrimSpace(tinyWorkload)
	for _, c := range []struct{ flag, body string }{
		{"-scenario", scen + "\n" + scen + "\ntrailing garbage\n"},
		{"-scenario", scen + " ]]]"},
		{"-workload", work + " ]]]"},
		{"-workload", work + "\n" + work},
	} {
		p := filepath.Join(t.TempDir(), "in.json")
		if err := os.WriteFile(p, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		code := run(context.Background(), []string{"-nodes", "4", "-policy", "sprint-aware", c.flag, p}, &out, &errb)
		lines := strings.Split(strings.TrimSuffix(errb.String(), "\n"), "\n")
		if code != 1 || out.Len() != 0 || len(lines) != 1 || !strings.HasPrefix(lines[0], "fleetsim: "+p+": ") {
			t.Errorf("%s %q: exit %d, stdout %q, stderr %q; want exit 1, no stdout, one \"fleetsim: %s: …\" line",
				c.flag, c.body, code, out.String(), errb.String(), p)
		}
	}
	// White space after the value is no trailing data.
	if out, code := runOut(t, "-policy", "sprint-aware", "-scenario", writeScenario(t, scen+"\n\n\t ")); code != 0 {
		t.Errorf("trailing white space: exit %d:\n%s", code, out)
	}
}

// TestScenarioClassNodesConflict: an explicit -nodes that disagrees with
// the scenario's class counts is rejected like the other scenario
// conflicts, never silently overridden.
func TestScenarioClassNodesConflict(t *testing.T) {
	p := writeScenario(t, `{
  "phases": [{"name": "steady", "duration_s": 30}],
  "classes": [{"name": "a", "count": 4}, {"name": "b", "count": 4}]
}`)
	if _, code := runOut(t, "-scenario", p, "-nodes", "500"); code != 2 {
		t.Errorf("-nodes conflicting with class counts should exit 2, got %d", code)
	}
	// Matching -nodes, or omitting it, both run.
	if out, code := runOut(t, "-scenario", p, "-nodes", "8"); code != 0 {
		t.Errorf("matching -nodes should run, got exit %d:\n%s", code, out)
	}
	if out, code := runOut(t, "-scenario", p); code != 0 || !strings.Contains(out, "8 nodes") {
		t.Errorf("class-derived fleet should report 8 nodes (exit %d):\n%s", code, out)
	}
}

// TestTraceFlagCoherence extends the coherence contract to the flight
// recorder: every knob that parameterizes it demands -trace, and -trace
// itself demands a single concrete policy × coordination.
func TestTraceFlagCoherence(t *testing.T) {
	cases := [][]string{
		{"-trace-level", "full"}, // recorder knobs without -trace
		{"-counterfactual-k", "5"},
		{"-timeline-window-s", "2"},
		{"-trace-summary"},
		{"-trace", "out.jsonl"}, // default -policy all
		{"-trace", "out.jsonl", "-policy", "sprint-aware", "-coordination", "all"},
		{"-trace", "out.jsonl", "-policy", "hedged", "-trace-level", "off"},
		{"-trace", "out.jsonl", "-policy", "hedged", "-trace-level", "bogus"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: want exit 2, got %d (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestTraceOutput drives -trace end to end: the JSONL file leads with the
// meta header, carries one record per line, and -trace-summary appends
// the regret table and the p99 sparkline to the report.
func TestTraceOutput(t *testing.T) {
	p := filepath.Join(t.TempDir(), "out.jsonl")
	out, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware",
		"-trace", p, "-trace-level", "full", "-counterfactual-k", "2", "-timeline-window-s", "2",
		"-trace-summary")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	if !bytes.HasPrefix(data, []byte(`{"t":"meta"`)) {
		t.Errorf("trace does not lead with the meta header: %.80s", data)
	}
	lines := bytes.Count(data, []byte("\n"))
	if lines < 300 {
		t.Errorf("trace has %d lines; want at least one per request", lines)
	}
	for _, want := range []string{"trace " + p, "p99 per 2s window:", "regret"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// The report table itself is unchanged by tracing.
	plain, code := runOut(t, "-nodes", "4", "-requests", "300", "-policy", "sprint-aware")
	if code != 0 {
		t.Fatalf("plain exit %d", code)
	}
	if !strings.HasPrefix(out, plain[:strings.Index(plain, "\nsprint-aware dispatch routes")]) {
		t.Errorf("traced report diverges from the untraced one:\n%s\n---\n%s", out, plain)
	}
}

// TestTraceScenarioOutput: tracing composes with -scenario — the per-phase
// report still renders, and the trace file carries the phase annotations.
func TestTraceScenarioOutput(t *testing.T) {
	sp := writeScenario(t, flashScenario)
	p := filepath.Join(t.TempDir(), "flash.jsonl")
	out, code := runOut(t, "-scenario", sp, "-policy", "sprint-aware", "-coordination", "token-permit",
		"-trace", p, "-trace-summary")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"baseline", "surge", "recovery", "overall:", "p99 per 5s window:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("trace file missing: %v", err)
	}
	for _, want := range []string{`"kind":"phase-start"`, `"name":"surge"`, `"kind":"node-fail"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("scenario trace missing %s", want)
		}
	}
}

// TestReliabilityFlagCoherence extends the coherence contract to the
// reliability layer: retry knobs demand a retry trigger (-timeout-s or
// -fault-prob), -retry-burst demands -retry-budget, and -gray-slowdown
// demands -gray-frac.
func TestReliabilityFlagCoherence(t *testing.T) {
	cases := [][]string{
		{"-max-retries", "3"}, // retry knobs with nothing to trigger them
		{"-retry-backoff-s", "0.2"},
		{"-retry-budget", "5"},
		{"-retry-burst", "10", "-timeout-s", "4"}, // burst without a budget
		{"-gray-slowdown", "8"},                   // slowdown without gray nodes
		{"-timeout-s", "-1"},                      // invalid values reach Validate via exit 1, not 2
	}
	for _, args := range cases[:len(cases)-1] {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: want exit 2, got %d (stderr: %s)", args, code, errb.String())
		}
	}
	if _, code := runOut(t, "-nodes", "4", "-requests", "100", "-timeout-s", "-1"); code != 1 {
		t.Errorf("negative -timeout-s should exit 1 via Validate, got %d", code)
	}
	good := [][]string{
		{"-nodes", "4", "-requests", "200", "-timeout-s", "5", "-max-retries", "2", "-retry-budget", "5", "-retry-burst", "10"},
		{"-nodes", "4", "-requests", "200", "-fault-prob", "0.05", "-max-retries", "2"},
		{"-nodes", "4", "-requests", "200", "-gray-frac", "0.25", "-gray-slowdown", "6"},
	}
	for _, args := range good {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 0 {
			t.Errorf("%v: want exit 0, got %d (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestReliabilityReported drives fault injection end to end: gray nodes
// plus a tight timeout must surface the reliability line with goodput,
// retry, and gray-node counts.
func TestReliabilityReported(t *testing.T) {
	out, code := runOut(t, "-nodes", "4", "-requests", "800", "-policy", "least-loaded",
		"-gray-frac", "0.5", "-gray-slowdown", "8", "-timeout-s", "4", "-max-retries", "2")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"goodput", "timed out", "shed", "amplification", "2 gray nodes"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestTraceUnwritablePathFails: a trace destination that cannot be
// created fails the run before it starts, with exit 1.
func TestTraceUnwritablePathFails(t *testing.T) {
	if _, code := runOut(t, "-nodes", "4", "-requests", "100", "-policy", "sprint-aware",
		"-trace", filepath.Join(t.TempDir(), "no", "such", "dir", "out.jsonl")); code != 1 {
		t.Errorf("unwritable trace path should exit 1, got %d", code)
	}
}

// TestReplayWorkloadFlagCoherence: replay and workload runs own their
// load profile, so load-shaping flags and each other are rejected up
// front with exit 2; -convert-trace and -replay-out are a pair.
func TestReplayWorkloadFlagCoherence(t *testing.T) {
	cases := [][]string{
		{"-replay", "t.csv", "-policy", "sprint-aware", "-requests", "100"},
		{"-replay", "t.csv", "-policy", "sprint-aware", "-rate", "2"},
		{"-replay", "t.csv", "-policy", "sprint-aware", "-workload", "w.json"},
		{"-replay", "t.csv", "-policy", "sprint-aware", "-scenario", "s.json"},
		{"-workload", "w.json", "-requests", "100"},
		{"-workload", "w.json", "-work", "2"},
		{"-convert-trace", "rec.jsonl"}, // missing -replay-out
		{"-replay-out", "t.csv"},        // missing -convert-trace
		{"-convert-trace", "rec.jsonl", "-replay-out", "t.csv", "-trace", "x.jsonl"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("%v: want exit 2, got %d (stderr: %s)", args, code, errb.String())
		}
	}
	// A conversion runs no simulation: every flag but its two files and
	// the profiles is refused by name (the first in flag-name order, here
	// each case's first) before anything is read or written.
	for _, extra := range [][]string{
		{"-replay", "t.csv"}, {"-workload", "w.json"}, {"-scenario", "s.json"}, {"-trace", "x.jsonl"},
		{"-policy", "round-robin"}, {"-seed", "9"}, {"-workers", "1"}, {"-shard-workers", "2"},
		{"-coordination", "none"}, {"-exact-quantiles"}, {"-trace-summary"},
		{"-nodes", "5", "-policy", "round-robin", "-trace-summary", "-seed", "9", "-cpuprofile", "p.prof"},
	} {
		args := append([]string{"-convert-trace", "rec.jsonl", "-replay-out", "t.csv"}, extra...)
		var out, errb bytes.Buffer
		code := run(context.Background(), args, &out, &errb)
		want := fmt.Sprintf("fleetsim: %s conflicts with -convert-trace (conversion runs no simulation)\n", extra[0])
		if code != 2 || errb.String() != want || out.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2 and %q", args, code, errb.String(), out.String(), want)
		}
	}
	// Missing or malformed inputs are runtime errors (exit 1), not usage;
	// an empty recording path is a conversion that fails, not a run.
	if out, code := runOut(t, "-convert-trace", "", "-replay-out", filepath.Join(t.TempDir(), "t.csv")); code != 1 || out != "" {
		t.Errorf("empty -convert-trace: want exit 1 and no report, got %d:\n%s", code, out)
	}
	if _, code := runOut(t, "-replay", filepath.Join(t.TempDir(), "absent.csv"),
		"-policy", "sprint-aware", "-coordination", "none"); code != 1 {
		t.Errorf("absent replay trace: want exit 1, got %d", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"classes": [], "bogus": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := runOut(t, "-workload", bad); code != 1 {
		t.Errorf("unknown workload field: want exit 1, got %d", code)
	}
}

// TestConvertReplayRoundTrip closes the record→replay loop at the CLI:
// record a run, convert the recording, and replay it — the replay report
// is byte-identical at every -shard-workers count.
func TestConvertReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.jsonl")
	if _, code := runOut(t, "-nodes", "4", "-requests", "400", "-policy", "sprint-aware",
		"-trace", rec); code != 0 {
		t.Fatalf("record exit %d", code)
	}
	trace := filepath.Join(dir, "trace.csv")
	out, code := runOut(t, "-convert-trace", rec, "-replay-out", trace)
	if code != 0 {
		t.Fatalf("convert exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "converted") || !strings.Contains(out, "400 replayable arrivals") {
		t.Errorf("convert summary missing counts:\n%s", out)
	}
	var reports []string
	for _, w := range []string{"1", "4"} {
		r, code := runOut(t, "-nodes", "4", "-policy", "sprint-aware", "-coordination", "none",
			"-replay", trace, "-shard-workers", w)
		if code != 0 {
			t.Fatalf("replay (workers %s) exit %d:\n%s", w, code, r)
		}
		reports = append(reports, r)
	}
	if reports[0] != reports[1] {
		t.Errorf("replay report changes with -shard-workers:\n%s\n---\n%s", reports[0], reports[1])
	}
	for _, want := range []string{"replay " + trace, "400 recorded arrivals", "sprint-aware"} {
		if !strings.Contains(reports[0], want) {
			t.Errorf("replay report missing %q:\n%s", want, reports[0])
		}
	}
}

// TestReplaySweep: a replay is an ordinary load source, so -policy all
// and -coordination all replay the same rows at every point of the grid.
// The sweep's report is the single-point replays' report rows, each
// unchanged, in the sweep's order under one header.
func TestReplaySweep(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.jsonl")
	if _, code := runOut(t, "-nodes", "4", "-requests", "600", "-rate", "2.6", "-policy", "sprint-aware",
		"-trace", rec); code != 0 {
		t.Fatalf("record exit %d", code)
	}
	trace := filepath.Join(dir, "trace.csv")
	if out, code := runOut(t, "-convert-trace", rec, "-replay-out", trace); code != 0 {
		t.Fatalf("convert exit %d:\n%s", code, out)
	}
	// split cuts a report after its column-header line into the header
	// block and the rows below it.
	split := func(out string) (head, rows string) {
		i := strings.Index(out, "\npolicy ")
		if i < 0 {
			t.Fatalf("no column header in:\n%s", out)
		}
		j := strings.IndexByte(out[i+1:], '\n')
		return out[:i+1+j+1], out[i+1+j+1:]
	}
	for _, c := range []struct {
		common []string // flags every run of the case shares
		sweep  []string
		points [][]string
	}{
		{nil, []string{"-policy", "all"}, [][]string{
			{"-policy", "round-robin"}, {"-policy", "least-loaded"},
			{"-policy", "sprint-aware"}, {"-policy", "hedged"},
		}},
		{[]string{"-policy", "sprint-aware", "-rack-size", "2"}, []string{"-coordination", "all"}, [][]string{
			{"-coordination", "uncoordinated"}, {"-coordination", "token-permit"}, {"-coordination", "probabilistic"},
		}},
	} {
		common := append([]string{"-replay", trace, "-nodes", "4"}, c.common...)
		out, code := runOut(t, slices.Concat(common, c.sweep)...)
		if code != 0 {
			t.Fatalf("%v: exit %d", c.sweep, code)
		}
		head, rows := split(out)
		var want []string
		for _, p := range c.points {
			pout, code := runOut(t, slices.Concat(common, p)...)
			if code != 0 {
				t.Fatalf("%v: exit %d", p, code)
			}
			phead, prows := split(pout)
			if phead != head {
				t.Errorf("%v: header %q, sweep header %q", p, phead, head)
			}
			want = append(want, prows)
		}
		if got := strings.Join(want, ""); rows != got {
			t.Errorf("%v sweep rows differ from the single-point replays in order:\n--- sweep ---\n%s--- points ---\n%s",
				c.sweep, rows, got)
		}
		n := 0
		for _, line := range strings.Split(rows, "\n") {
			if name, _, _ := strings.Cut(line, " "); name != "" {
				if _, err := sprinting.ParseFleetPolicy(name); err == nil {
					n++
				}
			}
		}
		if n != len(c.points) {
			t.Errorf("%v: %d report rows, want one per point (%d):\n%s", c.sweep, n, len(c.points), rows)
		}
	}
}

// TestConvertCutRecordingFails: a recording cut mid-line fails the
// conversion with the reader's own "trace: line N:" error for the cut
// line, exit 1, and leaves no -replay-out file behind; so does a
// recording with a header and no dispatch decisions.
func TestConvertCutRecordingFails(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec.jsonl")
	if _, code := runOut(t, "-nodes", "4", "-requests", "200", "-policy", "sprint-aware",
		"-trace", rec); code != 0 {
		t.Fatalf("record exit %d", code)
	}
	data, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	cutAt := len(data) / 2
	for data[cutAt-1] == '\n' {
		cutAt++ // land inside a line, not on a boundary
	}
	cut := data[:cutAt]
	_, wantErr := sprinting.ReadFleetTrace(bytes.NewReader(cut))
	wantLine := fmt.Sprintf("trace: line %d: ", bytes.Count(cut, []byte("\n"))+1)
	if wantErr == nil || !strings.HasPrefix(wantErr.Error(), wantLine) {
		t.Fatalf("reading the cut recording gave %v, want an error starting %q", wantErr, wantLine)
	}
	meta, _, _ := bytes.Cut(data, []byte("\n"))
	for _, c := range []struct {
		name    string
		in      []byte
		wantErr string
	}{
		{"cut", cut, wantErr.Error()},
		{"header only", append(meta, '\n'), "fleet: recording holds no dispatch decisions (was it recorded at level off?)"},
	} {
		in := filepath.Join(dir, c.name+".jsonl")
		if err := os.WriteFile(in, c.in, 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, c.name+".csv")
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{"-convert-trace", in, "-replay-out", out}, &stdout, &stderr)
		if code != 1 {
			t.Errorf("%s: exit %d, want 1", c.name, code)
		}
		if want := "fleetsim: " + in + ": " + c.wantErr + "\n"; stderr.String() != want {
			t.Errorf("%s: stderr %q, want %q", c.name, stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: stdout %q, want nothing", c.name, stdout.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: -replay-out file exists after a failed conversion (stat: %v)", c.name, err)
		}
	}
}

const tinyWorkload = `{
  "classes": [
    {"name": "interactive", "priority": 0, "target_p99_s": 2.0},
    {"name": "batch", "priority": 5}
  ],
  "tenants": [
    {"name": "search", "class": "interactive",
     "arrival": {"process": "poisson", "rate_per_s": 2.0},
     "work": {"dist": "exp", "mean_s": 1.0}},
    {"name": "analytics", "class": "batch",
     "arrival": {"process": "poisson", "rate_per_s": 1.0},
     "work": {"dist": "exp", "mean_s": 2.0}}
  ],
  "discipline": "priority",
  "duration_s": 150
}`

// TestWorkloadMode drives -workload end to end: the header names the
// spec, and the report carries a per-class block with SLO attainment and
// the fairness line.
func TestWorkloadMode(t *testing.T) {
	p := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(p, []byte(tinyWorkload), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runOut(t, "-nodes", "4", "-policy", "sprint-aware", "-workload", p)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"workload " + p, "2 classes, 2 tenants",
		"interactive", "batch", "Jain fairness"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	wide, code := runOut(t, "-nodes", "4", "-policy", "sprint-aware", "-workload", p,
		"-shard-workers", "4")
	if code != 0 {
		t.Fatalf("wide exit %d", code)
	}
	if out != wide {
		t.Errorf("workload report changes with -shard-workers:\n%s\n---\n%s", out, wide)
	}
}

// TestWorkloadScenarioMode: a workload spec rides a scenario's phases —
// the per-phase report renders and each run ends with the per-class
// block.
func TestWorkloadScenarioMode(t *testing.T) {
	sp := writeScenario(t, flashScenario)
	wp := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(wp, []byte(tinyWorkload), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runOut(t, "-scenario", sp, "-workload", wp,
		"-policy", "sprint-aware", "-coordination", "token-permit")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"baseline", "surge", "recovery", "overall:",
		"interactive", "batch", "Jain fairness"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestTraceFileMatchesRunFleet: the recording -trace streams to its file
// is byte for byte what RunFleet collects for the same spec and
// WriteJSONL serializes, on a churn scenario at the full level.
func TestTraceFileMatchesRunFleet(t *testing.T) {
	sp := writeScenario(t, flashScenario)
	p := filepath.Join(t.TempDir(), "rec.jsonl")
	if out, code := runOut(t, "-scenario", sp, "-policy", "hedged", "-coordination", "token-permit",
		"-trace", p, "-trace-level", "full"); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var scen sprinting.FleetScenario
	if code := readJSON(sp, &scen, io.Discard); code != 0 {
		t.Fatal("scenario unreadable")
	}
	// The config fleetsim builds from its flag defaults.
	cfg := sprinting.DefaultFleetConfig(sprinting.FleetHedged)
	cfg.Nodes, cfg.Requests, cfg.MeanWorkS, cfg.Seed = 16, 100000, 2, 12345
	cfg.ArrivalRatePerS, cfg.QueueCap, cfg.HedgeDelayS = 0, 256, 1
	cfg.Coordination = sprinting.RackTokenPermit
	cfg.RackSize, cfg.RackPowerBudgetW, cfg.RackBufferJ, cfg.SprintPermits, cfg.BreakerRecoveryS = 0, 0, 0, 0, 0
	cfg.Trace = sprinting.TraceConfig{Level: sprinting.TraceFull}
	_, tr, err := sprinting.RunFleet(context.Background(), sprinting.FleetSpec{Config: cfg, Scenario: &scen})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tr.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("-trace wrote %d bytes; RunFleet + WriteJSONL make %d, and they differ", len(got), want.Len())
	}
}

// TestCancelledTraceLeavesNoFile: a traced run that is cancelled exits 1
// and removes its partial recording, also when an older recording held
// the path.
func TestCancelledTraceLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, old := range []bool{false, true} {
		p := filepath.Join(dir, fmt.Sprintf("rec-%v.jsonl", old))
		if old {
			if err := os.WriteFile(p, []byte("an older recording\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var out, errb bytes.Buffer
		code := run(ctx, []string{"-nodes", "16", "-requests", "50000", "-policy", "sprint-aware", "-trace", p}, &out, &errb)
		if code != 1 || errb.String() != "fleetsim: context canceled\n" {
			t.Errorf("older file %v: exit %d, stderr %q; want 1 and the cancellation", old, code, errb.String())
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("older file %v: the recording survived a cancelled run (stat: %v)", old, err)
		}
	}
}

// TestTraceWindowCapRefused: a traced load spread over more timeline
// windows than the recorder may sample is refused by validation, before
// any output or file.
func TestTraceWindowCapRefused(t *testing.T) {
	p := filepath.Join(t.TempDir(), "x.jsonl")
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-nodes", "4", "-requests", "10", "-rate", "1e-300",
		"-policy", "sprint-aware", "-trace", p}, &out, &errb)
	want := "fleetsim: fleet: a traced load spanning 1e+301 s covers more than 1048576 timeline windows of 5 s; widen the trace window or shorten the load\n"
	if code != 1 || errb.String() != want || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q, stderr %q; want 1, nothing, %q", code, out.String(), errb.String(), want)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Errorf("a refused run created its recording (stat: %v)", err)
	}
}

// TestCreateInPlace: an output written over a longer existing file leaves
// exactly the new bytes, and a symlinked path is written through to its
// target, as os.Create does.
func TestCreateInPlace(t *testing.T) {
	dir := t.TempDir()
	write := func(path, body string) {
		t.Helper()
		o, err := createInPlace(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(o, body); err != nil {
			t.Fatal(err)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
	}
	read := func(path string) string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	p := filepath.Join(dir, "out")
	write(p, "a longer first output\n")
	write(p, "short\n")
	if got := read(p); got != "short\n" {
		t.Errorf("rewrite left %q, want %q", got, "short\n")
	}
	target, link := filepath.Join(dir, "target"), filepath.Join(dir, "link")
	write(target, "the target's old, longer contents\n")
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	write(link, "through the link\n")
	if got := read(target); got != "through the link\n" {
		t.Errorf("target holds %q after a write through its link", got)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Errorf("the link is no longer a symlink (lstat %v, %v)", fi, err)
	}
}

// TestTraceToNonRegularFile: -trace and -replay-out stream to a file that
// is not a regular file (/dev/null, a FIFO) without truncating or
// removing it; the run exits 0, -trace-summary still prints, and a FIFO's
// reader gets exactly the bytes a regular file would hold.
func TestTraceToNonRegularFile(t *testing.T) {
	args := []string{"-nodes", "4", "-requests", "400", "-policy", "sprint-aware", "-trace-summary", "-trace"}
	dir := t.TempDir()
	reg := filepath.Join(dir, "rec.jsonl")
	regOut, code := runOut(t, append(args, reg)...)
	if code != 0 {
		t.Fatalf("regular file: exit %d", code)
	}
	want, err := os.ReadFile(reg)
	if err != nil {
		t.Fatal(err)
	}
	nullOut, code := runOut(t, append(args, os.DevNull)...)
	if code != 0 {
		t.Fatalf("-trace %s: exit %d", os.DevNull, code)
	}
	if strings.ReplaceAll(nullOut, os.DevNull, reg) != regOut {
		t.Errorf("-trace %s printed\n%s\nwant the regular file's report\n%s", os.DevNull, nullOut, regOut)
	}
	if _, code := runOut(t, "-convert-trace", reg, "-replay-out", os.DevNull); code != 0 {
		t.Errorf("-replay-out %s: exit %d", os.DevNull, code)
	}
	if fi, err := os.Stat(os.DevNull); err != nil || fi.Mode()&os.ModeDevice == 0 {
		t.Fatalf("%s is no longer a device (stat %v, %v)", os.DevNull, fi, err)
	}

	fifo := filepath.Join(dir, "fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skip("no FIFOs here:", err)
	}
	got := make(chan []byte)
	go func() {
		var b []byte
		if r, err := os.Open(fifo); err == nil {
			b, _ = io.ReadAll(r)
			r.Close()
		}
		got <- b
	}()
	_, code = runOut(t, append(args, fifo)...)
	// Release the reader should the run have exited without opening the
	// FIFO.
	if w, err := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
		w.Close()
	}
	if b := <-got; code != 0 || !bytes.Equal(b, want) {
		t.Errorf("-trace FIFO: exit %d, reader got %d bytes; want 0 and the regular file's %d", code, len(b), len(want))
	}
	if fi, err := os.Lstat(fifo); err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		t.Errorf("the FIFO is gone after the run (lstat %v, %v)", fi, err)
	}
}

// TestCancelledTraceThroughSymlink: a cancelled run whose -trace path is
// a symlink empties the link's target, leaving no partial recording, and
// keeps the link; a cancelled run to /dev/null leaves the device alone.
func TestCancelledTraceThroughSymlink(t *testing.T) {
	dir := t.TempDir()
	target, link := filepath.Join(dir, "target.jsonl"), filepath.Join(dir, "link.jsonl")
	if err := os.WriteFile(target, []byte("an older recording\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []string{link, os.DevNull} {
		var out, errb bytes.Buffer
		if code := run(ctx, []string{"-nodes", "16", "-requests", "50000", "-policy", "sprint-aware", "-trace", p}, &out, &errb); code != 1 {
			t.Errorf("-trace %s: exit %d, stderr %q; want 1", p, code, errb.String())
		}
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Errorf("the link is gone after a cancelled run (lstat %v, %v)", fi, err)
	}
	if b, err := os.ReadFile(target); err != nil || len(b) != 0 {
		t.Errorf("the link's target holds %q (err %v) after a cancelled run; want it empty", b, err)
	}
	if fi, err := os.Stat(os.DevNull); err != nil || fi.Mode()&os.ModeDevice == 0 {
		t.Errorf("%s is no longer a device (stat %v, %v)", os.DevNull, fi, err)
	}
}
