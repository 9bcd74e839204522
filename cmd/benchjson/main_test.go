package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: sprinting
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFleetScale-8   	       1	2860000000 ns/op	45678912 B/op	  123456 allocs/op
BenchmarkFleetSweep 	       2	 139437430 ns/op	20596784 B/op	  181027 allocs/op
BenchmarkThermalStep-8  	 1000000	      1042 ns/op
BenchmarkTraceReadJSONL-2    	      10	 110930696 ns/op	  76.75 MB/s	11528720 B/op	     126 allocs/op
PASS
ok  	sprinting	4.2s
`

func TestParseBenchOutput(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, strings.NewReader(sample), &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "sprinting" {
		t.Errorf("header fields wrong: %+v", rep)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(rep.Results))
	}
	scale := rep.Results[0]
	if scale.Name != "BenchmarkFleetScale" || scale.Procs != 8 || scale.Iterations != 1 {
		t.Errorf("first result wrong: %+v", scale)
	}
	if scale.NsPerOp != 2860000000 || scale.BytesPerOp == nil || *scale.BytesPerOp != 45678912 ||
		scale.AllocsOp == nil || *scale.AllocsOp != 123456 {
		t.Errorf("benchmem fields wrong: %+v", scale)
	}
	// A sub-benchmark-free line without -N suffix still parses.
	if rep.Results[1].Name != "BenchmarkFleetSweep" || rep.Results[1].Procs != 0 {
		t.Errorf("suffix-free result wrong: %+v", rep.Results[1])
	}
	// No -benchmem columns → fields omitted.
	if rep.Results[2].BytesPerOp != nil || rep.Results[2].AllocsOp != nil {
		t.Errorf("missing benchmem columns should be omitted: %+v", rep.Results[2])
	}
	// A b.SetBytes throughput column does not hide the benchmem columns.
	if r := rep.Results[3]; r.NsPerOp != 110930696 || r.BytesPerOp == nil || *r.BytesPerOp != 11528720 ||
		r.AllocsOp == nil || *r.AllocsOp != 126 {
		t.Errorf("MB/s result wrong: %+v", r)
	}
	if !strings.Contains(out.String(), `"allocs_per_op": 123456`) {
		t.Errorf("JSON missing allocs_per_op:\n%s", out.String())
	}
}

func TestNoResultsFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, strings.NewReader("PASS\nok x 1s\n"), &out, &errb); code != 1 {
		t.Errorf("result-free input should exit 1, got %d", code)
	}
}

// writeReport marshals a Report to a temp file for comparator tests.
func writeReport(t *testing.T, rep Report) string {
	t.Helper()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func result(name string, ns float64) Result {
	return Result{Name: name, Iterations: 1, NsPerOp: ns}
}

// runCompare drives the gate and returns (stdout, stderr, exit code).
func runCompare(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(""), &out, &errb)
	return out.String(), errb.String(), code
}

// TestCompareFailsOnRegression is the gate's reason to exist: a 2×
// ns/op regression against a 25% tolerance must exit non-zero and name
// the offender.
func TestCompareFailsOnRegression(t *testing.T) {
	old := writeReport(t, Report{Results: []Result{
		result("BenchmarkFleetScale", 1e9),
		result("BenchmarkFleetSweep", 2e8),
	}})
	new := writeReport(t, Report{Results: []Result{
		result("BenchmarkFleetScale", 2e9), // 2× slower
		result("BenchmarkFleetSweep", 2.1e8),
	}})
	out, errs, code := runCompare(t, "-compare", old, new, "-tolerance", "0.25")
	if code != 1 {
		t.Fatalf("2x regression should exit 1, got %d\n%s%s", code, out, errs)
	}
	if !strings.Contains(out, "REGRESS") || !strings.Contains(out, "BenchmarkFleetScale") {
		t.Errorf("verdict should name the regressed benchmark:\n%s", out)
	}
	if !strings.Contains(out, "ok       BenchmarkFleetSweep") {
		t.Errorf("the within-tolerance benchmark should pass:\n%s", out)
	}
}

// TestComparePassesAtParity: identical reports — and improvements — are
// clean exits; the baseline is a ceiling, not a pin.
func TestComparePassesAtParity(t *testing.T) {
	rep := Report{Results: []Result{result("BenchmarkFleetScale", 1e9)}}
	old := writeReport(t, rep)
	same := writeReport(t, rep)
	if out, errs, code := runCompare(t, "-compare", old, same, "-tolerance", "0.25"); code != 0 {
		t.Fatalf("parity should exit 0, got %d\n%s%s", code, out, errs)
	}
	faster := writeReport(t, Report{Results: []Result{result("BenchmarkFleetScale", 4e8)}})
	if out, errs, code := runCompare(t, "-compare", old, faster, "-tolerance", "0.25"); code != 0 {
		t.Fatalf("an improvement should exit 0, got %d\n%s%s", code, out, errs)
	}
	// Exactly at the tolerance boundary still passes (gate fires strictly
	// past it).
	edge := writeReport(t, Report{Results: []Result{result("BenchmarkFleetScale", 1.25e9)}})
	if out, errs, code := runCompare(t, "-compare", old, edge, "-tolerance", "0.25"); code != 0 {
		t.Fatalf("at-tolerance should exit 0, got %d\n%s%s", code, out, errs)
	}
}

// TestCompareMissingAndAddedBenchmarks: a benchmark that vanished from
// the new report fails the gate (silent coverage loss); a brand-new
// benchmark is noted and passes until the baseline is refreshed.
func TestCompareMissingAndAddedBenchmarks(t *testing.T) {
	old := writeReport(t, Report{Results: []Result{
		result("BenchmarkFleetScale", 1e9),
		result("BenchmarkRackSweep", 5e8),
	}})
	new := writeReport(t, Report{Results: []Result{
		result("BenchmarkFleetScale", 1e9),
		result("BenchmarkFleetScenario", 3e8), // added
	}})
	out, _, code := runCompare(t, "-compare", old, new, "-tolerance", "0.25")
	if code != 1 {
		t.Fatalf("a missing baseline benchmark should exit 1, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "MISSING") || !strings.Contains(out, "BenchmarkRackSweep") {
		t.Errorf("verdict should flag the vanished benchmark:\n%s", out)
	}
	if !strings.Contains(out, "new      BenchmarkFleetScenario") {
		t.Errorf("added benchmarks should be noted:\n%s", out)
	}
	if !strings.Contains(out, "1 new benchmark(s) running ungated: BenchmarkFleetScenario") {
		t.Errorf("added benchmarks should be summarized with count and names:\n%s", out)
	}
}

// TestCompareSummarizesAllNewBenchmarks: the ungated summary counts and
// names every new benchmark, and does not appear when nothing is new.
func TestCompareSummarizesAllNewBenchmarks(t *testing.T) {
	old := writeReport(t, Report{Results: []Result{
		result("BenchmarkFleetScale", 1e9),
	}})
	new := writeReport(t, Report{Results: []Result{
		result("BenchmarkFleetScale", 1e9),
		result("BenchmarkFleetTenants", 2e8),
		result("BenchmarkFleetScenario", 3e8),
	}})
	out, _, code := runCompare(t, "-compare", old, new, "-tolerance", "0.25")
	if code != 0 {
		t.Fatalf("new benchmarks alone should pass the gate, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "2 new benchmark(s) running ungated: BenchmarkFleetTenants, BenchmarkFleetScenario") {
		t.Errorf("summary should count and name both new benchmarks:\n%s", out)
	}

	same, _, code := runCompare(t, "-compare", old, old, "-tolerance", "0.25")
	if code != 0 {
		t.Fatalf("identical reports should pass, got %d\n%s", code, same)
	}
	if strings.Contains(same, "running ungated") {
		t.Errorf("no summary expected when nothing is new:\n%s", same)
	}
}

func procResult(name string, ns float64, procs int) Result {
	return Result{Name: name, Procs: procs, Iterations: 1, NsPerOp: ns}
}

// TestCompareReportsSpeedups: every <base>Parallel/<base> pair in the
// new report gets a speedup line, without any -min-speedup flag.
func TestCompareReportsSpeedups(t *testing.T) {
	rep := Report{Results: []Result{
		procResult("BenchmarkFleetScaleDecoupled", 4e9, 8),
		procResult("BenchmarkFleetScaleDecoupledParallel", 1e9, 8),
	}}
	old := writeReport(t, rep)
	new := writeReport(t, rep)
	out, _, code := runCompare(t, "-compare", old, new)
	if code != 0 {
		t.Fatalf("parity should exit 0, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "speedup  BenchmarkFleetScaleDecoupledParallel") || !strings.Contains(out, "4.00x") {
		t.Errorf("compare should report the 4x parallel speedup:\n%s", out)
	}
}

// TestCompareMinSpeedupGate: an unmet -min-speedup requirement fails the
// gate when the parallel run had GOMAXPROCS ≥ 4; a met one passes.
func TestCompareMinSpeedupGate(t *testing.T) {
	slow := Report{Results: []Result{
		procResult("BenchmarkFleetScaleDecoupled", 4e9, 8),
		procResult("BenchmarkFleetScaleDecoupledParallel", 2e9, 8), // 2x
	}}
	old := writeReport(t, slow)
	new := writeReport(t, slow)
	out, errs, code := runCompare(t, "-compare", old, new,
		"-min-speedup", "BenchmarkFleetScaleDecoupledParallel=3")
	if code != 1 {
		t.Fatalf("2x speedup under a 3x floor should exit 1, got %d\n%s%s", code, out, errs)
	}
	if !strings.Contains(out, "SLOW") {
		t.Errorf("verdict should flag the slow pair:\n%s", out)
	}
	fast := Report{Results: []Result{
		procResult("BenchmarkFleetScaleDecoupled", 4e9, 8),
		procResult("BenchmarkFleetScaleDecoupledParallel", 1e9, 8),
	}}
	out, errs, code = runCompare(t, "-compare", writeReport(t, fast), writeReport(t, fast),
		"-min-speedup", "BenchmarkFleetScaleDecoupledParallel=3")
	if code != 0 {
		t.Fatalf("4x speedup over a 3x floor should exit 0, got %d\n%s%s", code, out, errs)
	}
}

// TestCompareMinSpeedupSkipsNarrowHosts: the requirement is honest about
// where parallel speedup is measurable — below GOMAXPROCS 4 the check
// prints a skip note and passes rather than reporting the runner's size
// as a regression.
func TestCompareMinSpeedupSkipsNarrowHosts(t *testing.T) {
	rep := Report{Results: []Result{
		procResult("BenchmarkFleetScaleDecoupled", 4e9, 1),
		procResult("BenchmarkFleetScaleDecoupledParallel", 4.2e9, 1), // "slower" on 1 core
	}}
	out, errs, code := runCompare(t, "-compare", writeReport(t, rep), writeReport(t, rep),
		"-min-speedup", "BenchmarkFleetScaleDecoupledParallel=3")
	if code != 0 {
		t.Fatalf("single-core run should skip the speedup floor, got exit %d\n%s%s", code, out, errs)
	}
	if !strings.Contains(out, "skip") || !strings.Contains(out, "GOMAXPROCS 1") {
		t.Errorf("skip note should name the narrow host:\n%s", out)
	}
}

// TestCompareMinSpeedupMissingTarget: a floor naming a benchmark absent
// from the report fails loudly — a renamed benchmark must not silently
// disarm its gate.
func TestCompareMinSpeedupMissingTarget(t *testing.T) {
	rep := Report{Results: []Result{procResult("BenchmarkFleetScale", 1e9, 8)}}
	out, _, code := runCompare(t, "-compare", writeReport(t, rep), writeReport(t, rep),
		"-min-speedup", "BenchmarkGoneParallel=3")
	if code != 1 {
		t.Fatalf("absent -min-speedup target should exit 1, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "MISSING") || !strings.Contains(out, "BenchmarkGoneParallel") {
		t.Errorf("verdict should name the absent target:\n%s", out)
	}
}

// TestCompareUsageErrors: wrong arity, bad files, and empty baselines
// are loud failures, not silent passes.
func TestCompareUsageErrors(t *testing.T) {
	good := writeReport(t, Report{Results: []Result{result("B", 1)}})
	if _, _, code := runCompare(t, "-compare", good); code != 2 {
		t.Errorf("one report should exit 2, got %d", code)
	}
	if _, _, code := runCompare(t, "-compare", good, good, "-tolerance", "-1"); code != 2 {
		t.Errorf("negative tolerance should exit 2, got %d", code)
	}
	if _, _, code := runCompare(t, "-compare", filepath.Join(t.TempDir(), "nope.json"), good); code != 1 {
		t.Errorf("missing baseline file should exit 1, got %d", code)
	}
	empty := writeReport(t, Report{})
	if _, _, code := runCompare(t, "-compare", empty, good); code != 1 {
		t.Errorf("empty baseline should exit 1, got %d", code)
	}
	if _, _, code := runCompare(t, "stray-positional"); code != 2 {
		t.Errorf("positional args without -compare should exit 2, got %d", code)
	}
	if _, _, code := runCompare(t, "-compare", good, good, "-min-speedup", "NoEquals"); code != 2 {
		t.Errorf("malformed -min-speedup should exit 2, got %d", code)
	}
	if _, _, code := runCompare(t, "-min-speedup", "B=3"); code != 2 {
		t.Errorf("-min-speedup without -compare should exit 2, got %d", code)
	}
	if _, _, code := runCompare(t, "-compare", good, good, "-max-ratio", "B=3"); code != 2 {
		t.Errorf("-max-ratio without a name/base pair should exit 2, got %d", code)
	}
	if _, _, code := runCompare(t, "-compare", good, good, "-max-ratio", "A/B=0"); code != 2 {
		t.Errorf("non-positive -max-ratio should exit 2, got %d", code)
	}
	if _, _, code := runCompare(t, "-max-ratio", "A/B=3"); code != 2 {
		t.Errorf("-max-ratio without -compare should exit 2, got %d", code)
	}
}

// TestCompareMaxRatioGate: a benchmark costing more than its ceiling
// times its base in the new report fails the gate, at any GOMAXPROCS; at
// or under the ceiling it passes, and the line names the ratio either way.
func TestCompareMaxRatioGate(t *testing.T) {
	rep := func(traced float64) string {
		return writeReport(t, Report{Results: []Result{
			procResult("BenchmarkFleetTrace", traced, 2),
			procResult("BenchmarkFleetTraceOff", 1e8, 2),
		}})
	}
	old := rep(2.3e9)
	out, errs, code := runCompare(t, "-compare", old, rep(1e9),
		"-max-ratio", "BenchmarkFleetTrace/BenchmarkFleetTraceOff=5")
	if code != 1 {
		t.Fatalf("10x under a 5x ceiling should exit 1, got %d\n%s%s", code, out, errs)
	}
	if !strings.Contains(out, "COSTLY   BenchmarkFleetTrace") || !strings.Contains(out, "10.00x of BenchmarkFleetTraceOff") {
		t.Errorf("verdict should name the pair and its ratio:\n%s", out)
	}
	for _, traced := range []float64{3e8, 5e8} {
		out, errs, code = runCompare(t, "-compare", old, rep(traced),
			"-max-ratio", "BenchmarkFleetTrace/BenchmarkFleetTraceOff=5")
		if code != 0 {
			t.Fatalf("%gx under a 5x ceiling should exit 0, got %d\n%s%s", traced/1e8, code, out, errs)
		}
		if !strings.Contains(out, "ratio    BenchmarkFleetTrace") {
			t.Errorf("passing pair should still report its ratio:\n%s", out)
		}
	}
}

// TestCompareMaxRatioMissingPair: a ceiling naming a benchmark absent
// from the new report fails loudly, like an absent -min-speedup target.
func TestCompareMaxRatioMissingPair(t *testing.T) {
	r := writeReport(t, Report{Results: []Result{result("BenchmarkFleetTraceOff", 1e8)}})
	out, _, code := runCompare(t, "-compare", r, r, "-max-ratio", "BenchmarkFleetTrace/BenchmarkFleetTraceOff=5")
	if code != 1 {
		t.Fatalf("absent -max-ratio pair should exit 1, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "MISSING  BenchmarkFleetTrace/BenchmarkFleetTraceOff") {
		t.Errorf("verdict should name the absent pair:\n%s", out)
	}
}

// TestMinSpeedupFlagStringDeterministic: the flag's String() must render
// targets in sorted-name order on every call — the text is a pure
// function of the map's contents, never of map iteration order.
func TestMinSpeedupFlagStringDeterministic(t *testing.T) {
	m := minSpeedupFlag{"BenchmarkZeta": 2, "BenchmarkAlpha": 3, "BenchmarkMid": 1.5}
	want := "BenchmarkAlpha=3,BenchmarkMid=1.5,BenchmarkZeta=2"
	for i := 0; i < 50; i++ {
		if got := m.String(); got != want {
			t.Fatalf("call %d: String() = %q, want %q", i, got, want)
		}
	}
}

// TestCompareMinSpeedupMissingOrderDeterministic: several absent
// -min-speedup targets must be reported in sorted order on every run.
func TestCompareMinSpeedupMissingOrderDeterministic(t *testing.T) {
	rep := Report{Results: []Result{procResult("BenchmarkFleetScale", 1e9, 8)}}
	old, new := writeReport(t, rep), writeReport(t, rep)
	var first string
	for i := 0; i < 20; i++ {
		out, _, code := runCompare(t, "-compare", old, new,
			"-min-speedup", "BenchmarkZGoneParallel=3",
			"-min-speedup", "BenchmarkAGoneParallel=2",
			"-min-speedup", "BenchmarkMGoneParallel=4")
		if code != 1 {
			t.Fatalf("absent targets should exit 1, got %d\n%s", code, out)
		}
		a := strings.Index(out, "BenchmarkAGoneParallel")
		m := strings.Index(out, "BenchmarkMGoneParallel")
		z := strings.Index(out, "BenchmarkZGoneParallel")
		if a < 0 || m < 0 || z < 0 || !(a < m && m < z) {
			t.Fatalf("missing targets out of sorted order:\n%s", out)
		}
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("run %d output differs from run 0:\n%s\nvs\n%s", i, out, first)
		}
	}
}
