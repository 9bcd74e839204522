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

func TestSmokeSprint(t *testing.T) {
	out, code := runOut(t, "-mode", "sprint", "-power", "16")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"sprint at 16.0 W", "melt start", "peak junction"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeCooldown(t *testing.T) {
	out, code := runOut(t, "-mode", "cooldown", "-power", "16")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "refreeze start") {
		t.Errorf("unexpected cooldown output:\n%s", out)
	}
}

func TestPowerSweepOrder(t *testing.T) {
	out, code := runOut(t, "-mode", "sprint", "-power", "8,16", "-workers", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Index(out, "sprint at 8.0 W") > strings.Index(out, "sprint at 16.0 W") {
		t.Errorf("sweep output out of list order:\n%s", out)
	}
}

func TestFlagErrors(t *testing.T) {
	if _, code := runOut(t, "-bogus"); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-power", "x"); code != 2 {
		t.Errorf("bad power should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-mode", "fry"); code != 2 {
		t.Errorf("bad mode should exit 2, got %d", code)
	}
	if _, code := runOut(t, "-power", "8,16", "-csv", "x.csv"); code != 2 {
		t.Errorf("-csv with a sweep should exit 2, got %d", code)
	}
}

// TestBadPowerFails: a power that is not positive and finite used to
// print a confident transient (a 25 °C peak, a +Inf °C peak, or zeros)
// and exit 0; it is now a flag error (exit 2) with nothing on stdout.
func TestBadPowerFails(t *testing.T) {
	for _, args := range [][]string{
		{"-power", "NaN"},
		{"-power", "-4"},
		{"-power", "Inf"},
		{"-power", "0"},
		{"-power", "8,-4"},
		{"-mode", "cooldown", "-power", "-2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(context.Background(), args, &out, &errb); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if out.Len() != 0 || !strings.Contains(errb.String(), "positive, finite wattage") {
				t.Errorf("stdout %q, stderr %q", out.String(), errb.String())
			}
		})
	}
}

// TestPowerAboveCeilingFails: a power past the 1 kW ceiling used to print
// a sprint that ended within one sample (a 0.000 s sprint with a 5025 °C
// or 300-digit peak, or a refreeze that completed before it started) and
// exit 0; it is now a flag error (exit 2) with nothing on stdout.
func TestPowerAboveCeilingFails(t *testing.T) {
	for _, mode := range []string{"sprint", "cooldown"} {
		for _, power := range []string{"1e300", "1e6"} {
			args := []string{"-mode", mode, "-power", power}
			t.Run(strings.Join(args, " "), func(t *testing.T) {
				var out, errb bytes.Buffer
				if code := run(context.Background(), args, &out, &errb); code != 2 {
					t.Errorf("exit %d, want 2", code)
				}
				if out.Len() != 0 || !strings.Contains(errb.String(), "above the 1000 W ceiling") {
					t.Errorf("stdout %q, stderr %q", out.String(), errb.String())
				}
			})
		}
	}
	if _, code := runOut(t, "-power", "1000"); code != 0 {
		t.Errorf("-power 1000 (the ceiling itself): exit %d, want 0", code)
	}
}

// TestMeltNeverStarts: at 48 W the junction reaches TJmax before the PCM
// starts melting. The melt times once printed as 0.000 s.
func TestMeltNeverStarts(t *testing.T) {
	out, code := runOut(t, "-power", "48")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"melt start      never\n", "melt complete   never\n", "plateau         none"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMeltNeverCompletes: at 32 W the PCM starts melting and the junction
// reaches TJmax mid-melt.
func TestMeltNeverCompletes(t *testing.T) {
	out, code := runOut(t, "-power", "32")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"melt start      0.112 s\n", "melt complete   never\n", "plateau         none"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRefreezeNever: a 64 W sprint ends before the PCM melts, so the
// cooldown has nothing to refreeze. Its refreeze times once printed as
// 0.00 s.
func TestRefreezeNever(t *testing.T) {
	out, code := runOut(t, "-mode", "cooldown", "-power", "64")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"refreeze start    never\n", "refreeze complete never\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
