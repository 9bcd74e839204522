// Command benchjson converts `go test -bench` output on stdin into a
// stable JSON document on stdout, so CI can archive the fleet perf
// trajectory (ns/op, B/op, allocs/op per benchmark) as a machine-readable
// artifact from every run. `make bench-json` wires it up:
//
//	go test -run '^$' -bench 'BenchmarkFleet...' -benchmem . > BENCH_fleet.txt
//	benchjson < BENCH_fleet.txt > BENCH_fleet.json
//
// Lines that are not benchmark results (headers, PASS/ok trailers) are
// ignored; B/op and allocs/op are omitted from an entry when the run was
// not benchmarked with -benchmem.
//
// With -compare the command becomes the CI perf-regression gate:
//
//	benchjson -compare BENCH_baseline.json BENCH_fleet.json -tolerance 0.25
//
// exits non-zero when any baseline benchmark's ns/op regressed past the
// tolerance (new > old × (1 + tolerance)) or disappeared from the new
// report; benchmarks only present in the new report pass, each noted on
// its own line and summarized with an explicit count and name list — a
// fresh benchmark silently riding outside the gate is how perf holes
// open. Improvements never fail the gate — the baseline is a ceiling,
// not a pin.
//
// Compare mode also reports, for every benchmark pair named
// <base>Parallel / <base> in the new report, the parallel speedup ratio
// (base ns/op ÷ parallel ns/op). A minimum can be gated:
//
//	benchjson -compare old.json new.json \
//	    -min-speedup BenchmarkFleetScaleDecoupledParallel=3
//
// fails when that pair's speedup is under 3×. The requirement is only
// enforced when the parallel result ran at GOMAXPROCS ≥ 4 (the -N name
// suffix); on smaller runners parallel speedup is unmeasurable, so the
// check prints a skip note instead of a false verdict.
//
// A ceiling on the cost of one benchmark relative to another in the new
// report can be gated the same way:
//
//	benchjson -compare old.json new.json \
//	    -max-ratio BenchmarkFleetTrace/BenchmarkFleetTraceOff=5
//
// fails when BenchmarkFleetTrace's ns/op exceeds 5× BenchmarkFleetTraceOff's
// (the flight recorder's overhead), or when either is absent. Both run on
// the same machine in the same report, so the ratio holds on any runner.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line, normalized.
type Result struct {
	Name       string  `json:"name"`
	Procs      int     `json:"procs,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp *int64  `json:"bytes_per_op,omitempty"`
	AllocsOp   *int64  `json:"allocs_per_op,omitempty"`
}

// Report is the whole document: environment header fields go test prints
// plus every parsed benchmark line in input order.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// benchLine matches e.g.
//
//	BenchmarkFleetScale-8   1  2860000000 ns/op  123456 B/op  450 allocs/op
//
// skipping the MB/s column a benchmark that calls b.SetBytes reports.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func parse(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		res := Result{Name: m[1]}
		if m[2] != "" {
			res.Procs, _ = strconv.Atoi(m[2])
		}
		res.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		res.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		if m[5] != "" {
			b, _ := strconv.ParseInt(m[5], 10, 64)
			res.BytesPerOp = &b
		}
		if m[6] != "" {
			a, _ := strconv.ParseInt(m[6], 10, 64)
			res.AllocsOp = &a
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, sc.Err()
}

// loadReport reads a benchjson JSON document from disk.
func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compare gates the new report against the baseline: any baseline
// benchmark whose ns/op grew past the tolerance, or that vanished from
// the new report, is a regression. It writes one verdict line per
// benchmark and returns the number of regressions.
func compare(old, new Report, tolerance float64, out io.Writer) int {
	newByName := map[string]Result{}
	for _, r := range new.Results {
		newByName[r.Name] = r
	}
	regressions := 0
	seen := map[string]bool{}
	for _, o := range old.Results {
		seen[o.Name] = true
		n, ok := newByName[o.Name]
		if !ok {
			fmt.Fprintf(out, "MISSING  %-40s baseline %.0f ns/op, absent from the new report\n", o.Name, o.NsPerOp)
			regressions++
			continue
		}
		ratio := n.NsPerOp / o.NsPerOp
		switch {
		case n.NsPerOp > o.NsPerOp*(1+tolerance):
			fmt.Fprintf(out, "REGRESS  %-40s %.0f -> %.0f ns/op (%.2fx, tolerance %.2fx)\n",
				o.Name, o.NsPerOp, n.NsPerOp, ratio, 1+tolerance)
			regressions++
		default:
			fmt.Fprintf(out, "ok       %-40s %.0f -> %.0f ns/op (%.2fx)\n", o.Name, o.NsPerOp, n.NsPerOp, ratio)
		}
	}
	var added []string
	for _, n := range new.Results {
		if !seen[n.Name] {
			added = append(added, n.Name)
			fmt.Fprintf(out, "new      %-40s %.0f ns/op (no baseline; add it on the next refresh)\n", n.Name, n.NsPerOp)
		}
	}
	if len(added) > 0 {
		fmt.Fprintf(out, "%d new benchmark(s) running ungated: %s — refresh BENCH_baseline.json to start gating them\n",
			len(added), strings.Join(added, ", "))
	}
	return regressions
}

// minSpeedupFlag collects repeated -min-speedup name=ratio requirements.
type minSpeedupFlag map[string]float64

func (m minSpeedupFlag) String() string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%g", name, m[name]))
	}
	return strings.Join(parts, ",")
}

func (m minSpeedupFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=ratio, got %q", s)
	}
	r, err := strconv.ParseFloat(val, 64)
	if err != nil || r <= 0 {
		return fmt.Errorf("ratio must be a positive number, got %q", val)
	}
	m[name] = r
	return nil
}

// maxRatioFlag collects repeated -max-ratio name/base=ratio ceilings.
type maxRatioFlag struct{ minSpeedupFlag }

func (m maxRatioFlag) Set(s string) error {
	if pair, _, _ := strings.Cut(s, "="); !strings.Contains(pair, "/") {
		return fmt.Errorf("want name/base=ratio, got %q", s)
	}
	return m.minSpeedupFlag.Set(s)
}

// gateRatios enforces every -max-ratio ceiling on the report: the named
// benchmark's ns/op over its base's must not exceed the ceiling. It writes
// one line per ceiling, in sorted order, and returns the number of
// failures; a pair absent from the report fails, so a renamed benchmark
// cannot silently disarm its gate.
func gateRatios(rep Report, max maxRatioFlag, out io.Writer) int {
	byName := map[string]Result{}
	for _, r := range rep.Results {
		byName[r.Name] = r
	}
	pairs := make([]string, 0, len(max.minSpeedupFlag))
	for pair := range max.minSpeedupFlag {
		pairs = append(pairs, pair)
	}
	sort.Strings(pairs)
	failures := 0
	for _, pair := range pairs {
		want := max.minSpeedupFlag[pair]
		name, base, _ := strings.Cut(pair, "/")
		n, okN := byName[name]
		b, okB := byName[base]
		if !okN || !okB {
			fmt.Fprintf(out, "MISSING  %-40s -max-ratio pair absent from the report\n", pair)
			failures++
			continue
		}
		ratio := n.NsPerOp / b.NsPerOp
		if ratio > want {
			fmt.Fprintf(out, "COSTLY   %-40s %.2fx of %s, over the %.2fx ceiling\n", name, ratio, base, want)
			failures++
			continue
		}
		fmt.Fprintf(out, "ratio    %-40s %.2fx of %s (ceiling %.2fx)\n", name, ratio, base, want)
	}
	return failures
}

// reportSpeedups writes one line per <base>Parallel/<base> benchmark
// pair in the report with the parallel speedup ratio, enforces any
// -min-speedup requirements, and returns the number of failures. A
// requirement is only armed when the parallel result ran at
// GOMAXPROCS ≥ 4: a narrower host cannot exhibit parallel speedup, so
// gating there would only report the runner's size, not a regression.
func reportSpeedups(rep Report, min minSpeedupFlag, out io.Writer) int {
	byName := map[string]Result{}
	for _, r := range rep.Results {
		byName[r.Name] = r
	}
	failures := 0
	checked := map[string]bool{}
	for _, r := range rep.Results {
		base, ok := strings.CutSuffix(r.Name, "Parallel")
		if !ok {
			continue
		}
		b, ok := byName[base]
		if !ok {
			continue
		}
		ratio := b.NsPerOp / r.NsPerOp
		fmt.Fprintf(out, "speedup  %-40s %.2fx over %s (GOMAXPROCS %d)\n", r.Name, ratio, base, r.Procs)
		want, gated := min[r.Name]
		if !gated {
			continue
		}
		checked[r.Name] = true
		switch {
		case r.Procs < 4:
			fmt.Fprintf(out, "skip     %-40s %.2fx minimum not enforced at GOMAXPROCS %d (< 4)\n", r.Name, want, r.Procs)
		case ratio < want:
			fmt.Fprintf(out, "SLOW     %-40s %.2fx under the required %.2fx over %s\n", r.Name, ratio, want, base)
			failures++
		}
	}
	names := make([]string, 0, len(min))
	for name := range min {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if checked[name] {
			continue
		}
		fmt.Fprintf(out, "MISSING  %-40s -min-speedup target (or its base pair) absent from the report\n", name)
		failures++
	}
	return failures
}

// splitArgs separates flag tokens from positional arguments so the
// documented invocation order (`-compare old.json new.json -tolerance
// 0.25`) parses even though the flag package stops at the first
// positional argument.
func splitArgs(args []string) (flags, pos []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-tolerance" || a == "--tolerance",
			a == "-min-speedup" || a == "--min-speedup",
			a == "-max-ratio" || a == "--max-ratio":
			flags = append(flags, a)
			if i+1 < len(args) {
				i++
				flags = append(flags, args[i])
			}
		case strings.HasPrefix(a, "-"):
			flags = append(flags, a)
		default:
			pos = append(pos, a)
		}
	}
	return flags, pos
}

func run(args []string, in io.Reader, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(errw)
	doCompare := fs.Bool("compare", false, "compare two benchjson reports: -compare old.json new.json [-tolerance 0.25]")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional ns/op growth before -compare fails (0.25 = 25%)")
	minSpeedup := minSpeedupFlag{}
	fs.Var(minSpeedup, "min-speedup", "with -compare: require name=ratio parallel speedup for a <base>Parallel/<base> pair (repeatable; enforced only at GOMAXPROCS >= 4)")
	maxRatio := maxRatioFlag{minSpeedupFlag{}}
	fs.Var(maxRatio, "max-ratio", "with -compare: cap name/base=ratio, the named benchmark's ns/op over its base's in the new report (repeatable)")
	flagArgs, pos := splitArgs(args)
	if err := fs.Parse(flagArgs); err != nil {
		return 2
	}
	if *doCompare {
		if len(pos) != 2 {
			fmt.Fprintln(errw, "benchjson: -compare needs exactly two reports: old.json new.json")
			return 2
		}
		if *tolerance < 0 {
			fmt.Fprintln(errw, "benchjson: tolerance must be non-negative")
			return 2
		}
		old, err := loadReport(pos[0])
		if err != nil {
			fmt.Fprintln(errw, "benchjson:", err)
			return 1
		}
		if len(old.Results) == 0 {
			fmt.Fprintf(errw, "benchjson: baseline %s has no results\n", pos[0])
			return 1
		}
		newRep, err := loadReport(pos[1])
		if err != nil {
			fmt.Fprintln(errw, "benchjson:", err)
			return 1
		}
		failures := compare(old, newRep, *tolerance, out)
		slow := reportSpeedups(newRep, minSpeedup, out)
		costly := gateRatios(newRep, maxRatio, out)
		if failures > 0 {
			fmt.Fprintf(errw, "benchjson: %d benchmark(s) regressed past %.0f%% — refresh BENCH_baseline.json only for intentional changes\n",
				failures, *tolerance*100)
		}
		if slow > 0 {
			fmt.Fprintf(errw, "benchjson: %d parallel speedup requirement(s) unmet\n", slow)
		}
		if costly > 0 {
			fmt.Fprintf(errw, "benchjson: %d -max-ratio ceiling(s) exceeded\n", costly)
		}
		if failures+slow+costly > 0 {
			return 1
		}
		return 0
	}
	if len(minSpeedup) > 0 || len(maxRatio.minSpeedupFlag) > 0 {
		fmt.Fprintln(errw, "benchjson: -min-speedup and -max-ratio require -compare")
		return 2
	}
	if len(pos) != 0 {
		fmt.Fprintf(errw, "benchjson: unexpected arguments %v (conversion mode reads stdin)\n", pos)
		return 2
	}
	rep, err := parse(in)
	if err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(errw, "benchjson: no benchmark results on stdin")
		return 1
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(errw, "benchjson:", err)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}
