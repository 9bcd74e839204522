// Command gridsim runs standalone Figure 6 power-delivery transients:
// supply-voltage integrity for a configurable core-activation ramp on the
// Figure 5 RLC network. Schedules run concurrently on the engine worker
// pool; output order is always schedule order. A ramp that is not finite,
// or long enough to need more than a million timesteps, is an error
// (exit 1).
//
// Usage:
//
//	gridsim                    # the paper's three schedules
//	gridsim -ramp-us 12.8      # one custom ramp
//	gridsim -ramp-us 0 -csv abrupt.csv
//	gridsim -workers 1         # serial sweep, identical output
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

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given streams; main is the only
// caller that attaches real ones (tests drive buffers).
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rampUs  = fs.Float64("ramp-us", -1, "activation ramp in µs (0 = abrupt; negative = run the paper's three schedules)")
		csvOut  = fs.String("csv", "", "write the supply-voltage trace to this CSV file (single-ramp mode)")
		workers = fs.Int("workers", 0, "engine pool size (0 = GOMAXPROCS, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// The paper's three schedules, or one custom ramp (NaN included:
	// SimulateActivation rejects it) — one batch either way.
	ramps, csvPath := []float64{0, 1.28e-6, 128e-6}, ""
	if !(*rampUs < 0) {
		ramps, csvPath = []float64{*rampUs * 1e-6}, *csvOut
	}
	results, err := sprinting.Map(ctx, ramps,
		func(_ context.Context, rampS float64) (*sprinting.ActivationResult, error) {
			return sprinting.SimulateActivation(rampS)
		}, *workers)
	if err != nil {
		fmt.Fprintf(stderr, "gridsim: %v\n", err)
		return 1
	}
	for i, ramp := range ramps {
		if code := report(stdout, stderr, ramp, results[i], csvPath); code != 0 {
			return code
		}
	}
	return 0
}

func report(stdout, stderr io.Writer, rampS float64, res *sprinting.ActivationResult, csvOut string) int {
	name := "abrupt (1ns)"
	if rampS > 0 {
		name = fmt.Sprintf("linear ramp %.3g µs", rampS*1e6)
	}
	verdict := "WITHIN 2% tolerance"
	if !res.WithinTolerance {
		verdict = "VIOLATES 2% tolerance"
	}
	fmt.Fprintf(stdout, "%-24s min %.4f V  settle %.4f V  max dev %.2f%%  %s\n",
		name, res.MinV, res.FinalV, res.MaxDeviationFrac*100, verdict)
	if csvOut != "" {
		if err := os.WriteFile(csvOut, []byte(res.Supply.CSV()), 0o644); err != nil {
			fmt.Fprintf(stderr, "gridsim: writing %s: %v\n", csvOut, err)
			return 1
		}
		fmt.Fprintf(stdout, "  trace written to %s\n", csvOut)
	}
	return 0
}
