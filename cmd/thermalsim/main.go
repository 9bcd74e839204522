// Command thermalsim runs standalone Figure 4 thermal transients on the
// mobile stack: sprint initiation and post-sprint cooldown, with optional
// CSV traces and a configurable design point. A comma-separated power list
// sweeps the design point concurrently on the engine worker pool; output
// order is always list order. Every power must be positive and at most
// 1 kW (62.5× the paper's 16 W sprint): the sprint transient is sampled
// every 0.1 ms, and from a few kilowatts up a sprint ends within one
// sample, so the printed durations and peaks would mean nothing.
//
// Usage:
//
//	thermalsim -mode sprint -power 16
//	thermalsim -mode sprint -power 4,8,16,32 -workers 4
//	thermalsim -mode cooldown -csv cooldown.csv
//	thermalsim -mode sprint -pcm-mg 1.5 -melt-c 60
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
	"strconv"
	"strings"
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
	fs := flag.NewFlagSet("thermalsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode    = fs.String("mode", "sprint", "sprint | cooldown")
		power   = fs.String("power", "16", "sprint power in watts; comma-separated values sweep the design point")
		pcmMg   = fs.Float64("pcm-mg", 150, "PCM mass in milligrams")
		meltC   = fs.Float64("melt-c", 60, "PCM melting point in °C")
		csvOut  = fs.String("csv", "", "write the junction trace to this CSV file (single-power mode)")
		workers = fs.Int("workers", 0, "engine pool size (0 = GOMAXPROCS, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	powers, err := parsePowers(*power)
	if err != nil {
		fmt.Fprintf(stderr, "thermalsim: %v\n", err)
		return 2
	}
	if len(powers) > 1 && *csvOut != "" {
		fmt.Fprintln(stderr, "thermalsim: -csv requires a single -power value")
		return 2
	}

	design := sprinting.DefaultThermalDesign()
	design.PCMMassG = *pcmMg / 1000
	design.PCM.MeltingPointC = *meltC
	if err := design.Validate(); err != nil {
		fmt.Fprintf(stderr, "thermalsim: %v\n", err)
		return 1
	}

	switch *mode {
	case "sprint":
		results, err := sprinting.Map(ctx, powers,
			func(_ context.Context, p float64) (sprinting.SprintTransient, error) {
				return sprinting.SimulateSprintThermals(design, p), nil
			}, *workers)
		if err != nil {
			fmt.Fprintf(stderr, "thermalsim: %v\n", err)
			return 1
		}
		for i, p := range powers {
			res := results[i]
			fmt.Fprintf(stdout, "sprint at %.1f W, %.0f mg PCM (melt %.1f °C):\n", p, *pcmMg, *meltC)
			fmt.Fprintf(stdout, "  melt start      %s\n", secs(res.MeltStartS, 3))
			fmt.Fprintf(stdout, "  melt complete   %s\n", secs(res.MeltEndS, 3))
			if math.IsNaN(res.PlateauS) {
				fmt.Fprintln(stdout, "  plateau         none (the PCM never fully melted)")
			} else {
				fmt.Fprintf(stdout, "  plateau         %.3f s\n", res.PlateauS)
			}
			if res.Truncated {
				fmt.Fprintf(stdout, "  sprint duration > %.3f s (budget not exhausted in horizon)\n", res.SprintEndS)
			} else {
				fmt.Fprintf(stdout, "  sprint duration %.3f s\n", res.SprintEndS)
			}
			fmt.Fprintf(stdout, "  peak junction   %.2f °C\n", res.MaxJunctionC)
			if code := writeCSV(stdout, stderr, *csvOut, res.Junction.CSV()); code != 0 {
				return code
			}
		}
	case "cooldown":
		results, err := sprinting.Map(ctx, powers,
			func(_ context.Context, p float64) (sprinting.CooldownTransient, error) {
				return sprinting.SimulateCooldownThermals(design, p), nil
			}, *workers)
		if err != nil {
			fmt.Fprintf(stderr, "thermalsim: %v\n", err)
			return 1
		}
		for i, p := range powers {
			res := results[i]
			fmt.Fprintf(stdout, "cooldown after %.1f W sprint, %.0f mg PCM:\n", p, *pcmMg)
			fmt.Fprintf(stdout, "  refreeze start    %s\n", secs(res.FreezeStartS, 2))
			fmt.Fprintf(stdout, "  refreeze complete %s\n", secs(res.FreezeEndS, 2))
			if res.NearOK {
				fmt.Fprintf(stdout, "  near ambient      %.2f s (within 3 °C)\n", res.NearAmbientS)
			} else {
				fmt.Fprintln(stdout, "  near ambient      not reached in horizon")
			}
			if code := writeCSV(stdout, stderr, *csvOut, res.Junction.CSV()); code != 0 {
				return code
			}
		}
	default:
		fmt.Fprintf(stderr, "thermalsim: unknown mode %q (want sprint|cooldown)\n", *mode)
		return 2
	}
	return 0
}

// maxPowerW is the highest sprint power thermalsim accepts; see the
// package doc.
const maxPowerW = 1000

func parsePowers(list string) ([]float64, error) {
	var powers []float64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		p, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -power value %q: %v", part, err)
		}
		if !(p > 0) || math.IsInf(p, 1) {
			return nil, fmt.Errorf("bad -power value %q: want a positive, finite wattage", part)
		}
		if p > maxPowerW {
			return nil, fmt.Errorf("bad -power value %q: above the %d W ceiling", part, maxPowerW)
		}
		powers = append(powers, p)
	}
	if len(powers) == 0 {
		return nil, fmt.Errorf("no -power values given")
	}
	return powers, nil
}

// secs formats a transient's event time, or "never" for the NaN the
// thermal model reports when the event does not happen.
func secs(v float64, prec int) string {
	if math.IsNaN(v) {
		return "never"
	}
	return fmt.Sprintf("%.*f s", prec, v)
}

func writeCSV(stdout, stderr io.Writer, path, data string) int {
	if path == "" {
		return 0
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		fmt.Fprintf(stderr, "thermalsim: writing %s: %v\n", path, err)
		return 1
	}
	fmt.Fprintf(stdout, "  trace written to %s\n", path)
	return 0
}
