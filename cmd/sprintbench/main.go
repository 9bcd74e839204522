// Command sprintbench regenerates the paper's evaluation: every table and
// figure, or a chosen subset, printed as ASCII tables. Each experiment's
// sweep is evaluated concurrently on the shared engine worker pool;
// -workers=1 reproduces serial execution with identical output. Ctrl-C
// cancels the sweep cleanly between points.
//
// Usage:
//
//	sprintbench -list
//	sprintbench -exp all
//	sprintbench -exp fig7,fig10 -scale 0.5 -workers 8
//
// A -scale that is not positive and finite, a -format other than table
// or csv, and an unknown or empty experiment id are flag errors (exit 2),
// reported before any experiment runs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

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
	fs := flag.NewFlagSet("sprintbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale   = fs.Float64("scale", 1, "input-size multiplier (<1 for quick approximate runs)")
		list    = fs.Bool("list", false, "list experiment ids and exit")
		format  = fs.String("format", "table", "output format: table | csv")
		workers = fs.Int("workers", 0, "engine pool size (0 = GOMAXPROCS, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ids := sprinting.ExperimentIDs()
	if *list {
		for _, id := range ids {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	// Every flag is checked before the first experiment runs, so a bad one
	// never follows a partial regeneration.
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		fmt.Fprintf(stderr, "sprintbench: bad -scale %v: want a positive, finite multiplier\n", *scale)
		return 2
	}
	if *format != "table" && *format != "csv" {
		fmt.Fprintf(stderr, "sprintbench: unknown -format %q (want table|csv)\n", *format)
		return 2
	}
	selected := ids
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
		for i, id := range selected {
			selected[i] = strings.TrimSpace(id)
			if !slices.Contains(ids, selected[i]) {
				fmt.Fprintf(stderr, "sprintbench: unknown experiment id %q in -exp (have %s)\n", selected[i], strings.Join(ids, ", "))
				return 2
			}
		}
	}
	for _, id := range selected {
		//sprintvet:ignore nondeterminism wall-clock timing of the regeneration is the reported product, not sim state
		start := time.Now()
		opt := sprinting.RunOptions{Scale: *scale, Workers: *workers, CSV: *format == "csv"}
		if err := sprinting.RunExperimentWithContext(ctx, stdout, id, opt); err != nil {
			fmt.Fprintf(stderr, "sprintbench: %v\n", err)
			return 1
		}
		if *format != "csv" {
			//sprintvet:ignore nondeterminism wall-clock timing of the regeneration is the reported product, not sim state
			fmt.Fprintf(stdout, "(%s regenerated in %.1fs)\n\n", id, time.Since(start).Seconds())
		}
	}
	return 0
}
