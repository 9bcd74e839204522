package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"sprinting/bench/internal/spec"
)

// setupFloorS is the least worsening of setup_s that counts: a set-up of a
// few milliseconds moves by more than its bound share from scheduling
// alone.
const setupFloorS = 0.003

// bound is an end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b.EndToEnd, nil
}

// verdict judges b against a for one metric. The metric may worsen by its
// bound share of a's value, or by setupFloorS for setup_s if that is
// larger. A spread between quartiles wider than that allowance on either
// side leaves the comparison unresolved, unless the value is a minimum
// (peak_rss_mb), which does not move with the spread.
func verdict(a, b summary, bd bound) string {
	allowed := bd.Bound * a.Value
	if bd.Name == "setup_s" {
		allowed = max(allowed, setupFloorS)
	}
	worse := b.Value - a.Value
	if bd.Better == "higher" {
		worse = -worse
	}
	switch {
	case !a.ByMin && max(a.Q3-a.Q1, b.Q3-b.Q1) > allowed:
		return "unresolved"
	case worse > allowed:
		return "worse"
	case worse < -allowed:
		return "better"
	}
	return "within bound"
}

// compareFiles prints, for every workload in both results files and every
// end-to-end metric, both sides' values and quartiles and a verdict.
func compareFiles(aPath, bPath, benchmarkPath string, w io.Writer) error {
	bounds, err := readBounds(benchmarkPath)
	if err != nil {
		return err
	}
	var a, b map[string]result
	for _, f := range []struct {
		path string
		into *map[string]result
	}{{aPath, &a}, {bPath, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	fmt.Fprintf(w, "%-16s %-12s %-36s %-36s %8s %6s  %s\n", "workload", "metric",
		"A value [q1, q3] (n)", "B value [q1, q3] (n)", "change", "bound", "verdict")
	for _, name := range spec.Names {
		ra, okA := a[name]
		rb, okB := b[name]
		if !okA || !okB {
			continue
		}
		for _, bd := range bounds {
			sa, sb := ra.Metrics[bd.Name], rb.Metrics[bd.Name]
			fmt.Fprintf(w, "%-16s %-12s %-36s %-36s %+7.1f%% %5.0f%%  %s\n", name, bd.Name,
				cell(sa), cell(sb), 100*(sb.Value/sa.Value-1), 100*bd.Bound, verdict(sa, sb, bd))
		}
		v := "within bound"
		if rb.FailedFrac > ra.FailedFrac {
			v = "worse"
		}
		fmt.Fprintf(w, "%-16s %-12s %-36.4g %-36.4g %8s %6s  %s\n", name, "failed_frac",
			ra.FailedFrac, rb.FailedFrac, "", "0", v)
	}
	for _, name := range spec.Names {
		_, okA := a[name]
		_, okB := b[name]
		if okA != okB {
			fmt.Fprintf(w, "%s: measured on one side only\n", name)
		}
	}
	return nil
}

func cell(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Value, s.Q1, s.Q3, s.N)
}
