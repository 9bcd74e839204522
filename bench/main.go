// Command bench is the repository's benchmark. Run it from the repository
// root through bench/run.sh, which builds it.
//
// The untraced pass builds cmd/fleetsim and cmd/sprintbench from the
// checkout and, for each workload in turn, times 21 set-up runs and then
// its reps, checking every rep's outputs against the digests pinned in
// bench/testdata/digests.json. With -trace 1 the traced pass follows: the
// bench/traced program calls the same workloads' library functions
// in-process inside spans and reports per-layer numbers.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. A run of every workload
// prefixes each metric name with its workload and a slash. The full
// results, with quartiles and every rep, go to <out>/results.json, and
// -compare reads two such files.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"sprinting/bench/internal/spec"
)

const (
	buildDir    = ".bench_build"
	digestsPath = "bench/testdata/digests.json"
)

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []spec.Metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "run_s", Unit: "s"},
	{Name: "cpu_s", Unit: "s"},
	{Name: "peak_rss_mb", Unit: "MB"},
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this workload only (default: one set of every workload)")
		seed     = fs.Int64("seed", 1, "seed passed to fleetsim -seed")
		secs     = fs.Float64("seconds", 0, "measure each workload for this many seconds of reps (0: the workload's fixed rep count)")
		traced   = fs.Int("trace", 0, "1: run the traced pass too and report per-layer metrics")
		out      = fs.String("out", filepath.Join(buildDir, "out"), "directory for results.json and spans.json")
		compare  = fs.Bool("compare", false, "compare two results files: -compare a.json b.json")
		update   = fs.Bool("update-digests", false, "pin this run's outputs in "+digestsPath)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		if err := compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) {
		fs.Usage()
		return 2
	}
	names := spec.Names
	if *workload != "" {
		if !slices.Contains(spec.Names, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(spec.Names, ", "))
			return 2
		}
		names = []string{*workload}
	}
	results, err := runSet(ctx, names, *seed, *secs, *traced == 1, *out, *update, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line := report(stdout, names, results, *traced == 1)
	if err := writeJSON(filepath.Join(*out, "results.json"), results); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		return 1
	}
	if !line.Correct {
		return 1
	}
	return 0
}

// runSet builds the commands, measures every named workload, and runs the
// traced pass when asked.
func runSet(ctx context.Context, names []string, seed int64, seconds float64, traced bool, out string, update bool, log io.Writer) (map[string]result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	binDir := filepath.Join(root, buildDir, "bin")
	if err := goBuild(ctx, root, log, "-o", binDir+string(filepath.Separator), "./cmd/fleetsim", "./cmd/sprintbench"); err != nil {
		return nil, err
	}
	if traced {
		if err := goBuild(ctx, filepath.Join(root, "bench"), log, "-o", filepath.Join(binDir, "traced"), "./traced"); err != nil {
			return nil, err
		}
	}
	bins := map[string]string{
		"fleetsim":    filepath.Join(binDir, "fleetsim"),
		"sprintbench": filepath.Join(binDir, "sprintbench"),
	}
	pins, err := readPins(digestsPath)
	if err != nil {
		return nil, err
	}
	byName := map[string]spec.Workload{}
	for _, w := range spec.Workloads(seed) {
		byName[w.Name] = w
	}
	results := map[string]result{}
	for _, name := range names {
		w := byName[name]
		res, err := measure(ctx, bins, filepath.Join(root, buildDir, "work"), w, seed, seconds, pins[pinKey(w, seed)], log)
		if err != nil {
			return nil, err
		}
		results[name] = res
		if update && res.Digests != nil {
			pins[pinKey(w, seed)] = res.Digests
		}
	}
	if update {
		if err := writeJSON(digestsPath, pins); err != nil {
			return nil, err
		}
	}
	if traced {
		if err := tracedPass(ctx, filepath.Join(binDir, "traced"), names, seed, out, results, log); err != nil {
			return nil, err
		}
	}
	return results, nil
}

func goBuild(ctx context.Context, dir string, log io.Writer, args ...string) error {
	cmd := exec.CommandContext(ctx, "go", append([]string{"build"}, args...)...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %v: %w", args, err)
	}
	return nil
}

// pinKey names a workload's pinned digests: per platform, since float
// formatting of the reports may differ across architectures, and per seed
// for the workloads the seed reaches.
func pinKey(w spec.Workload, seed int64) string {
	s := "any"
	if w.Seeded {
		s = strconv.FormatInt(seed, 10)
	}
	return strings.Join([]string{runtime.GOOS, runtime.GOARCH, w.Name, s}, "/")
}

func readPins(path string) (map[string]map[string]string, error) {
	pins := map[string]map[string]string{}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pins, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// tracedPass runs the traced program over the workloads and folds its
// per-layer metrics into the results. Layers a workload does not exercise
// read 0.
func tracedPass(ctx context.Context, bin string, names []string, seed int64, out string, results map[string]result, log io.Writer) error {
	cmd := exec.CommandContext(ctx, bin, "-seed", strconv.FormatInt(seed, 10),
		"-workloads", strings.Join(names, ","), "-out", out)
	cmd.Stderr, cmd.Env = log, childEnv
	data, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	var passes map[string]struct {
		RunS    float64            `json:"run_s"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(data, &passes); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	for _, name := range names {
		res, pass := results[name], passes[name]
		res.Layers = map[string]float64{}
		for _, m := range spec.Layers {
			res.Layers[m.Name] = pass.Metrics[m.Name]
		}
		// The traced pass is timed raw, so the gap takes run_s back to raw.
		res.Layers["bench.untraced_gap_s"] = res.Metrics["run_s"].Value/res.SpeedScale - pass.RunS
		results[name] = res
	}
	return nil
}

// valueUnit is one metric on the result line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// report prints every metric by name with its unit and returns the result
// line: end-to-end metrics, or per-layer ones for a traced run.
func report(w io.Writer, names []string, results map[string]result, traced bool) resultLine {
	line := resultLine{Metrics: map[string]valueUnit{}}
	for _, name := range names {
		res := results[name]
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		key := func(metric string) string {
			if len(names) == 1 {
				return metric
			}
			return name + "/" + metric
		}
		fmt.Fprintf(w, "%s (seed %d): %d reps, %d failed; calibration median %.4g s, times scaled by %.4g to the reference speed\n",
			name, res.Seed, res.Attempted, res.Failed, res.Calibration.Median, res.SpeedScale)
		for _, m := range endToEnd {
			s := res.Metrics[m.Name]
			stat := "median"
			if s.ByMin {
				stat = "min"
			}
			fmt.Fprintf(w, "  %-34s %12.6g %-8s %s of %d; median %.6g, q1 %.6g, q3 %.6g\n",
				m.Name, s.Value, m.Unit, stat, s.N, s.Median, s.Q1, s.Q3)
			if !traced {
				line.Metrics[key(m.Name)] = valueUnit{s.Value, m.Unit}
			}
		}
		fmt.Fprintf(w, "  %-34s %12.6g %-8s\n", "failed_frac", res.FailedFrac, "ratio")
		if traced {
			for _, m := range spec.Layers {
				fmt.Fprintf(w, "  %-34s %12.6g %-8s\n", m.Name, res.Layers[m.Name], m.Unit)
				line.Metrics[key(m.Name)] = valueUnit{res.Layers[m.Name], m.Unit}
			}
		}
	}
	line.Correct = line.Failed == 0
	return line
}
