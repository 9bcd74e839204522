package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runOut(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(context.Background(), args, &out, &errb)
	if code != 0 {
		t.Logf("stderr: %s", errb.String())
	}
	return out.String(), code
}

func TestSmokeSingleRamp(t *testing.T) {
	out, code := runOut(t, "-ramp-us", "12.8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "linear ramp") || !strings.Contains(out, "tolerance") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestPaperSchedules(t *testing.T) {
	out, code := runOut(t, "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "abrupt (1ns)") || strings.Count(out, "\n") != 3 {
		t.Errorf("want the paper's three schedules:\n%s", out)
	}
}

func TestCSVTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	_, code := runOut(t, "-ramp-us", "0", "-csv", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		t.Fatalf("trace not written: %v", err)
	}
}

func TestBadFlagFails(t *testing.T) {
	if _, code := runOut(t, "-bogus"); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
}

// TestBadRampFails: a NaN ramp used to panic in the transient's empty
// trace, and an infinite or huge one ran without end; each is now an
// error (exit 1) before any timestep runs, with nothing on stdout.
func TestBadRampFails(t *testing.T) {
	for _, ramp := range []string{"NaN", "Inf", "1e12"} {
		t.Run(ramp, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(context.Background(), []string{"-ramp-us", ramp}, &out, &errb); code != 1 {
				t.Errorf("exit %d, want 1", code)
			}
			if out.Len() != 0 || !strings.Contains(errb.String(), "gridsim: point 0: powergrid: ") {
				t.Errorf("stdout %q, stderr %q", out.String(), errb.String())
			}
		})
	}
}
