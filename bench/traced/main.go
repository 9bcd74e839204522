// Command traced is the benchmark's traced pass. It calls each workload's
// library functions in-process, wraps every call in a span, writes the
// spans to <out>/spans.json, and prints one JSON object mapping each
// workload to its per-layer metrics and to run_s, the duration of its
// "run" span. The harness (bench/main.go) builds and runs it.
//
// Usage:
//
//	traced -seed 1 -workloads scale_sprint,paper_fig9 -out .bench_build/out
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// workloadResult is one workload's entry in the printed object.
type workloadResult struct {
	RunS    float64 `json:"run_s"`
	Metrics layers  `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traced", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed  = fs.Int64("seed", 1, "fleet seed")
		names = fs.String("workloads", "", "comma-separated workloads to trace")
		out   = fs.String("out", ".", "directory for spans.json and trace_replay's files")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	in, err := defaultInputs(*seed, filepath.Join(*out, "trace_replay"))
	if err != nil {
		fmt.Fprintln(stderr, "traced:", err)
		return 1
	}
	t := newTracer()
	results, err := tracePasses(ctx, t, in, strings.Split(*names, ","))
	if err == nil {
		err = writeSpans(filepath.Join(*out, "spans.json"), t.Spans())
	}
	if err != nil {
		fmt.Fprintln(stderr, "traced:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(results); err != nil {
		return 1
	}
	return 0
}

// tracePasses runs each named workload's pass, one after another, from a
// collected heap.
func tracePasses(ctx context.Context, t *Tracer, in inputs, names []string) (map[string]workloadResult, error) {
	results := map[string]workloadResult{}
	for _, name := range names {
		p, ok := passes[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		runtime.GC()
		t.workload = name
		m, err := p(ctx, t, in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		results[name] = workloadResult{RunS: t.rootS(name, "run"), Metrics: m}
	}
	return results, nil
}

func writeSpans(path string, spans []Span) error {
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
