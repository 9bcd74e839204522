package main

import (
	"context"
	"io"
	"testing"

	"sprinting/bench/internal/spec"
)

// shWorkload runs script under /bin/sh as its only step.
func shWorkload(script string) (spec.Workload, map[string]string) {
	return spec.Workload{
		Name:  "sh",
		Reps:  4,
		Setup: spec.Step{Prog: "sh", Args: []string{"-c", ":"}},
		Steps: []spec.Step{{Prog: "sh", Args: []string{"-c", script}}},
	}, map[string]string{"sh": "/bin/sh"}
}

// helloSHA is the sha256 of "hello\n".
const helloSHA = "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03"

func TestPinnedDigestMatches(t *testing.T) {
	w, bins := shWorkload("echo hello")
	res, err := measure(context.Background(), bins, t.TempDir(), w, 1, 0, map[string]string{"step1.out": helloSHA}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 4 || res.Failed != 0 || res.Metrics["run_s"].N != 4 || res.Metrics["setup_s"].N != setupRuns {
		t.Errorf("result = %+v, want 4 passing reps after %d set-up runs", res, setupRuns)
	}
	// The calibration's median sets the factor every time is scaled by.
	if res.Calibration.N < 1 || res.SpeedScale != calibrationRefS/res.Calibration.Median {
		t.Errorf("calibration %+v, scale %v", res.Calibration, res.SpeedScale)
	}
}

func TestDigestMismatchFailsRep(t *testing.T) {
	w, bins := shWorkload("echo hello")
	res, err := measure(context.Background(), bins, t.TempDir(), w, 1, 0, map[string]string{"step1.out": "0000"}, io.Discard)
	if err == nil {
		t.Fatal("measure passed with every rep's output mismatching its pin")
	}
	if res.Failed != minReps || res.Attempted != minReps || res.FailedFrac != 1 {
		t.Errorf("result = %+v, want the workload stopped after %d failed reps", res, minReps)
	}
}

func TestUnpinnedSeedChecksAgainstFirstRep(t *testing.T) {
	// Each rep prints a larger count, so every rep after the first differs.
	w, bins := shWorkload(`n=$(cat n 2>/dev/null || echo 0); n=$((n+1)); echo $n > n; echo $n`)
	res, err := measure(context.Background(), bins, t.TempDir(), w, 1, 0, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 4 || res.Failed != 3 || res.Metrics["run_s"].N != 1 || res.Digests != nil {
		t.Errorf("result = %+v, want rep 1 to pass and reps 2-4 to fail", res)
	}
}
