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

func TestSmoke(t *testing.T) {
	out, code := runOut(t, "-bursts", "8", "-gap", "5", "-work", "1", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"session: 8 bursts", "sustained", "governed sprint", "unmanaged sprint"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWorkerCountDoesNotChangeOutput(t *testing.T) {
	args := []string{"-bursts", "16", "-seed", "5"}
	serial, code := runOut(t, append(args, "-workers", "1")...)
	if code != 0 {
		t.Fatalf("serial exit %d", code)
	}
	wide, code := runOut(t, append(args, "-workers", "4")...)
	if code != 0 {
		t.Fatalf("wide exit %d", code)
	}
	if serial != wide {
		t.Errorf("workers=1 and workers=4 differ:\n%s\nvs\n%s", serial, wide)
	}
}

func TestBadFlagFails(t *testing.T) {
	if _, code := runOut(t, "-bogus"); code != 2 {
		t.Errorf("bad flag should exit 2, got %d", code)
	}
}

// TestBadSessionFlagsFail: a burst count outside [1, maxBursts] or a gap
// or work mean outside (0, maxMeanS] used to print a table (all zeros,
// NaN, Inf, a negative response time, or a silent 0.1 s spacing) or, for
// a huge count, allocate without end; each is now a flag error (exit 2)
// with nothing on stdout. The largest mean the cap admits still runs.
func TestBadSessionFlagsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-bursts", "0"},
		{"-bursts", "-3"},
		{"-bursts", "100000000"},
		{"-work", "-1"},
		{"-work", "Inf"},
		{"-gap", "NaN"},
		{"-gap", "0"},
		{"-gap", "-5"},
		{"-gap", "1e308"},
		{"-work", "1e308"},
		{"-work", "1.000001e9"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(context.Background(), args, &out, &errb); code != 2 {
				t.Errorf("exit %d, want 2", code)
			}
			if out.Len() != 0 || !strings.HasPrefix(errb.String(), "sessionsim: "+args[0]+" ") {
				t.Errorf("stdout %q, stderr %q", out.String(), errb.String())
			}
		})
	}
	for _, flag := range []string{"-gap", "-work"} {
		out, code := runOut(t, flag, "1e9")
		if code != 0 || strings.Contains(out, "Inf") || strings.Contains(out, "NaN") {
			t.Errorf("%s 1e9: exit %d:\n%s", flag, code, out)
		}
	}
}
