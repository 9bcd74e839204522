package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func at(value, q1, q3 float64) summary {
	return summary{Value: value, Median: value, Q1: q1, Q3: q3, N: 7}
}

func TestVerdict(t *testing.T) {
	run := bound{Name: "run_s", Better: "lower", Bound: 0.1}
	setup := bound{Name: "setup_s", Better: "lower", Bound: 0.25}
	rate := bound{Name: "rate", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		name string
		a, b summary
		bd   bound
		want string
	}{
		{"small change", at(2, 1.98, 2.02), at(2.1, 2.08, 2.12), run, "within bound"},
		{"slower", at(2, 1.98, 2.02), at(2.3, 2.28, 2.32), run, "worse"},
		{"faster", at(2, 1.98, 2.02), at(1.7, 1.68, 1.72), run, "better"},
		{"spread wider than bound", at(2, 1.7, 2.3), at(2.3, 2.28, 2.32), run, "unresolved"},
		// 0.007 s × 0.25 is under the 3 ms floor, so the floor applies.
		{"setup under floor", at(0.007, 0.007, 0.007), at(0.0095, 0.0095, 0.0095), setup, "within bound"},
		{"setup past floor", at(0.007, 0.007, 0.007), at(0.0105, 0.0105, 0.0105), setup, "worse"},
		{"setup past share", at(0.07, 0.07, 0.07), at(0.09, 0.09, 0.09), setup, "worse"},
		{"higher is better", at(100, 100, 100), at(85, 85, 85), rate, "worse"},
		{"minimum ignores spread",
			summary{Value: 56.5, Q1: 56.5, Q3: 96, ByMin: true},
			summary{Value: 57, Q1: 57, Q3: 90, ByMin: true}, run, "within bound"},
	} {
		if got := verdict(c.a, c.b, c.bd); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFilesUsesBenchmarkBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bench := write("BENCHMARK.json", `{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2}]}`)
	a := write("a.json", `{"scale_sprint": {"failed_frac": 0, "metrics": {"run_s": {"value": 2, "q1": 2, "q3": 2, "n": 7}}}}`)
	b := write("b.json", `{"scale_sprint": {"failed_frac": 0.1, "metrics": {"run_s": {"value": 2.3, "q1": 2.3, "q3": 2.3, "n": 7}}}}`)
	var out strings.Builder
	if err := compareFiles(a, b, bench, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(out.String(), "\n")
	if len(lines) < 3 {
		t.Fatalf("compare printed %q", out.String())
	}
	// +15% is within the 20% bound read from the file; any rise in
	// failed_frac is worse.
	if !strings.Contains(lines[1], "run_s") || !strings.HasSuffix(lines[1], "within bound") {
		t.Errorf("run_s line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "failed_frac") || !strings.HasSuffix(lines[2], "worse") {
		t.Errorf("failed_frac line = %q", lines[2])
	}
}
