// Command sessionsim evaluates sprinting policies on a bursty user-activity
// trace (the paper's §1 usage model): it generates a deterministic session
// of computation bursts and reports the response-time distribution under
// sustained, governed-sprint, and unmanaged-sprint service.
//
// The three policies are evaluated concurrently on the engine worker pool;
// output order is always policy order. -bursts must lie in [1, 1000000],
// and -gap and -work in (0, 1e9] seconds; anything else exits 2.
//
// Usage:
//
//	sessionsim                          # default session (24 bursts)
//	sessionsim -bursts 50 -gap 5 -work 3 -seed 9
//	sessionsim -workers 1               # serial sweep, identical output
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"sprinting"
)

// maxBursts bounds -bursts: a million-burst session evaluates in a
// fraction of a second, and the bound stops a mistyped count from
// allocating without end.
const maxBursts = 1_000_000

// maxMeanS bounds -gap and -work at 1e9 s, about 32 years, the bound the
// fleet simulator puts on every load source's mean work: past it a
// session's sums overflow to Inf and its mean response reads Inf or NaN.
const maxMeanS = 1e9

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given streams; main is the only
// caller that attaches real ones (tests drive buffers).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sessionsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n       = fs.Int("bursts", 24, "number of bursts in the session")
		gap     = fs.Float64("gap", 10, "mean inter-arrival gap in seconds")
		work    = fs.Float64("work", 2, "mean burst work in single-core seconds")
		seed    = fs.Int64("seed", 12345, "trace seed")
		workers = fs.Int("workers", 0, "engine pool size (0 = GOMAXPROCS, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *n < 1 || *n > maxBursts:
		fmt.Fprintf(stderr, "sessionsim: -bursts %d outside [1, %d]\n", *n, maxBursts)
		return 2
	case !(*gap > 0) || *gap > maxMeanS:
		fmt.Fprintf(stderr, "sessionsim: -gap %g s outside (0, %g]\n", *gap, float64(maxMeanS))
		return 2
	case !(*work > 0) || *work > maxMeanS:
		fmt.Fprintf(stderr, "sessionsim: -work %g s outside (0, %g]\n", *work, float64(maxMeanS))
		return 2
	}

	bursts := sprinting.GenerateSession(*n, *gap, *work, *seed)
	fmt.Fprintf(stdout, "session: %d bursts, mean gap %.1f s, mean work %.1f s (seed %d)\n\n",
		*n, *gap, *work, *seed)
	fmt.Fprintf(stdout, "%-18s %14s %14s %18s %15s\n",
		"policy", "mean resp (s)", "p95 resp (s)", "full intensity %", "violation (J)")
	policies := []sprinting.SessionPolicy{
		sprinting.SessionSustained, sprinting.SessionGoverned, sprinting.SessionUnmanaged,
	}
	metrics, err := sprinting.Map(ctx, policies,
		func(_ context.Context, p sprinting.SessionPolicy) (sprinting.SessionMetrics, error) {
			return sprinting.EvaluateSession(bursts, p), nil
		}, *workers)
	if err != nil {
		fmt.Fprintln(stderr, "sessionsim:", err)
		return 1
	}
	for i, m := range metrics {
		fmt.Fprintf(stdout, "%-18s %14.3f %14.3f %18.1f %15.2f\n",
			policies[i].String(), m.MeanResponseS, m.P95ResponseS, m.FullIntensityPct, m.ViolationJ)
	}
	fmt.Fprintln(stdout, "\ngoverned sprinting tracks unmanaged response times while never exceeding the thermal budget")
	return 0
}
