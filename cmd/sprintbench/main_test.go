package main

import (
	"bytes"
	"context"
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

func TestListExperiments(t *testing.T) {
	out, code := runOut(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fig7", "table1", "session", "fleet_policy"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
}

func TestRunsOneCheapExperiment(t *testing.T) {
	out, code := runOut(t, "-exp", "fig1", "-scale", "0.12")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "regenerated in") {
		t.Errorf("unexpected fig1 output:\n%s", out)
	}
}

func TestCSVFormat(t *testing.T) {
	out, code := runOut(t, "-exp", "fig1", "-scale", "0.12", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, ",") || strings.Contains(out, "regenerated in") {
		t.Errorf("csv output should be machine-readable:\n%s", out)
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	if _, code := runOut(t, "-exp", "fig99"); code != 2 {
		t.Errorf("unknown experiment should exit 2, got %d", code)
	}
}

// TestBadFlagsFailBeforeRunning: a bad -scale, -format or experiment id
// used to print full tables (a NaN or infinite scale gave one constant
// speedup per kernel; 0 and -1 silently ran scale 1; xml printed tables)
// or a partial regeneration before failing; it now exits 2 with nothing
// on stdout, before the first experiment runs.
func TestBadFlagsFailBeforeRunning(t *testing.T) {
	for _, c := range []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-exp", "fig1", "-scale", "NaN", "-format", "csv"}, "bad -scale NaN"},
		{[]string{"-exp", "fig1", "-scale", "Inf"}, "bad -scale +Inf"},
		{[]string{"-exp", "fig1", "-scale", "-1"}, "bad -scale -1"},
		{[]string{"-exp", "fig1", "-scale", "0"}, "bad -scale 0"},
		{[]string{"-exp", "fig1", "-format", "xml"}, `unknown -format "xml"`},
		{[]string{"-exp", "fig1,nosuch"}, `unknown experiment id "nosuch"`},
		{[]string{"-exp", ""}, `unknown experiment id ""`},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(context.Background(), c.args, &out, &errb); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if out.Len() != 0 || !strings.Contains(errb.String(), c.wantErr) {
				t.Errorf("stdout %q, stderr %q, want no stdout and an error naming %q", out.String(), errb.String(), c.wantErr)
			}
		})
	}
}

func TestBadFlagFails(t *testing.T) {
	if _, code := runOut(t, "-bogus"); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb bytes.Buffer
	if code := run(ctx, []string{"-exp", "fig7", "-scale", "0.12"}, &out, &errb); code != 1 {
		t.Errorf("cancelled run should exit 1, got %d", code)
	}
}
