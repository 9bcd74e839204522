package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"

	"sprinting/bench/internal/spec"
)

const (
	// setupRuns is how many set-up runs setup_s takes the median of.
	setupRuns = 21
	// minReps is the fewest reps a time-budgeted run measures.
	minReps = 3
	// stepTimeout fails a command that runs this long; every workload's
	// rep takes a few seconds.
	stepTimeout = 60 * time.Second
)

// childEnv caps every command at two threads of Go code, whatever the
// host's core count, so runs on wider machines stay comparable.
var childEnv = append(os.Environ(), "GOMAXPROCS=2")

// usage is what one command or one rep cost.
type usage struct {
	wallS, cpuS, rssMB float64
}

// runCmd runs bin in dir with its standard output written to
// dir/stdoutName and its standard error beside it, and returns its wall
// time, its user+system CPU (its own children included, as wait4 reports
// them) and its peak resident set.
func runCmd(ctx context.Context, bin, dir, stdoutName string, args []string) (usage, error) {
	out, err := os.Create(filepath.Join(dir, stdoutName))
	if err != nil {
		return usage{}, err
	}
	defer out.Close()
	errf, err := os.Create(filepath.Join(dir, stdoutName+".err"))
	if err != nil {
		return usage{}, err
	}
	defer errf.Close()
	ctx, cancel := context.WithTimeout(ctx, stepTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr, cmd.Env = dir, out, errf, childEnv
	//sprintvet:ignore nondeterminism host wall time is the benchmark's measurement
	start := time.Now()
	err = cmd.Run()
	//sprintvet:ignore nondeterminism host wall time is the benchmark's measurement
	u := usage{wallS: time.Since(start).Seconds()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			u.cpuS = seconds(ru.Utime) + seconds(ru.Stime)
			u.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
		}
	}
	if err != nil {
		return u, fmt.Errorf("%s %v: %w (stderr in %s.err)", filepath.Base(bin), args, err, stdoutName)
	}
	return u, out.Close()
}

func seconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// stepOut names the file a rep's i-th step writes its standard output to.
func stepOut(i int) string { return "step" + strconv.Itoa(i+1) + ".out" }

// runRep runs a workload's steps once, in order, and returns what the rep
// cost and the sha256 of every step's output and every pinned output file.
func runRep(ctx context.Context, bins map[string]string, dir string, w spec.Workload) (usage, map[string]string, error) {
	var u usage
	files := append([]string(nil), w.Outputs...)
	for i, st := range w.Steps {
		su, err := runCmd(ctx, bins[st.Prog], dir, stepOut(i), st.Args)
		if err != nil {
			return u, nil, err
		}
		u.wallS += su.wallS
		u.cpuS += su.cpuS
		u.rssMB = max(u.rssMB, su.rssMB)
		files = append(files, stepOut(i))
	}
	digests := map[string]string{}
	for _, name := range files {
		d, err := digestFile(filepath.Join(dir, name))
		if err != nil {
			return u, nil, err
		}
		digests[name] = d
	}
	return u, digests, nil
}

func digestFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkDigests reports every file whose digest differs from the expected
// one, naming the files in sorted order.
func checkDigests(got, want map[string]string) error {
	var errs []error
	for _, name := range slices.Sorted(maps.Keys(want)) {
		if got[name] != want[name] {
			errs = append(errs, fmt.Errorf("%s: sha256 %.12s, want %.12s", name, got[name], want[name]))
		}
	}
	if len(got) != len(want) {
		errs = append(errs, fmt.Errorf("%d output files digested, want %d", len(got), len(want)))
	}
	return errors.Join(errs...)
}

// moreReps reports whether to run another rep: until seconds of reps have
// passed (and at least minReps), or the workload's fixed rep count when
// seconds is 0.
func moreReps(w spec.Workload, seconds float64, done int, elapsed time.Duration) bool {
	if seconds <= 0 {
		return done < w.Reps
	}
	return done < minReps || elapsed.Seconds() < seconds
}

// result is one workload's measurement.
type result struct {
	Seed       int64   `json:"seed"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`
	// Metrics hold times in seconds at the reference speed: raw times
	// multiplied by SpeedScale, calibrationRefS over the median of the
	// Calibration samples taken before the set-up runs and after each rep.
	Metrics     map[string]summary `json:"metrics"`
	Calibration summary            `json:"calibration"`
	SpeedScale  float64            `json:"speed_scale"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	// Digests are the outputs every passing rep produced.
	Digests map[string]string `json:"digests,omitempty"`
}

// measure runs a workload's set-up runs and then its reps in workDir,
// calibrating the host's speed before them and after each rep. Each
// rep's outputs must match want; with want nil (an unpinned seed) they
// must match the first passing rep's. A rep that fails to run or to match
// counts in Failed and adds nothing to the timings; after minReps
// failures the workload stops.
func measure(ctx context.Context, bins map[string]string, workDir string, w spec.Workload, seed int64, seconds float64, want map[string]string, log io.Writer) (result, error) {
	res := result{Seed: seed}
	dir := filepath.Join(workDir, w.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	for _, name := range slices.Sorted(maps.Keys(w.Inputs)) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(w.Inputs[name]), 0o644); err != nil {
			return res, err
		}
	}
	// Calibrate for calibrationLeadS first, then after each rep until the
	// calibration has taken calibrationShare of the reps' time on top.
	var cal []float64
	var calS, repS float64
	catchUp := func() {
		for calS < calibrationLeadS+calibrationShare*repS {
			c := calibrate()
			cal, calS = append(cal, c), calS+c
		}
	}
	catchUp()
	var setup []float64
	for range setupRuns {
		u, err := runCmd(ctx, bins[w.Setup.Prog], dir, "setup.out", w.Setup.Args)
		if err != nil {
			return res, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		setup = append(setup, u.wallS)
	}
	var wall, cpu, rss []float64
	//sprintvet:ignore nondeterminism the time budget is host wall time
	start := time.Now()
	//sprintvet:ignore nondeterminism the time budget is host wall time
	for ; res.Failed < minReps && moreReps(w, seconds, res.Attempted, time.Since(start)); res.Attempted++ {
		u, got, err := runRep(ctx, bins, dir, w)
		repS += u.wallS
		catchUp()
		if err == nil && want != nil {
			err = checkDigests(got, want)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(log, "bench: %s rep %d failed: %v\n", w.Name, res.Attempted+1, err)
			continue
		}
		want = got
		wall, cpu, rss = append(wall, u.wallS), append(cpu, u.cpuS), append(rss, u.rssMB)
	}
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	if len(wall) == 0 {
		return res, fmt.Errorf("%s: every rep failed", w.Name)
	}
	res.Calibration = summarize(cal, "s", false)
	res.SpeedScale = calibrationRefS / res.Calibration.Median
	scaled := func(vals []float64) []float64 {
		for i := range vals {
			vals[i] *= res.SpeedScale
		}
		return vals
	}
	res.Metrics = map[string]summary{
		"setup_s":     summarize(scaled(setup), "s", false),
		"run_s":       summarize(scaled(wall), "s", false),
		"cpu_s":       summarize(scaled(cpu), "s", false),
		"peak_rss_mb": summarize(rss, "MB", true),
	}
	if res.Failed == 0 {
		res.Digests = want
	}
	return res, nil
}
