package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// violationsPkg is the deliberately-broken fixture with one finding per
// analyzer; it lives under testdata/src so ./... never matches it and
// only explicit naming reaches it.
const violationsPkg = "sprinting/internal/analysis/testdata/src/violations"

// TestVersionFlag: cmd/go probes `-V=full` and hashes the reply into its
// vet cache key, so the output must carry the version and nothing else.
func TestVersionFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-V=full"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-V=full exit = %d, stderr: %s", code, stderr.String())
	}
	got := strings.TrimSpace(stdout.String())
	want := "sprintvet version " + version
	if got != want {
		t.Errorf("-V=full output = %q, want %q", got, want)
	}
	if fields := strings.Fields(got); len(fields) < 3 {
		t.Errorf("-V=full output %q has %d fields; cmd/go requires at least 3", got, len(fields))
	}
}

// TestViolationsFixtureFails: the seeded fixture must trip every
// analyzer and exit 2.
func TestViolationsFixtureFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{violationsPkg}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("violations fixture exit = %d, want 2\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, a := range []string{"nondeterminism", "allocfree", "tracehook"} {
		if !strings.Contains(out, ": "+a+": ") {
			t.Errorf("no %s finding in fixture output:\n%s", a, out)
		}
	}
}

// TestRepoIsClean: the module's own code must come back with zero
// findings — every true positive is fixed or carries a reasoned
// suppression.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"sprinting/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("sprintvet over sprinting/... exit = %d, want 0\nstdout: %s\nstderr: %s",
			code, stdout.String(), stderr.String())
	}
}

// TestGoVetVettool drives the real protocol: build the binary, hand it
// to `go vet -vettool`, and check that the violations fixture fails
// while a clean package passes.
func TestGoVetVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	bin := filepath.Join(t.TempDir(), "sprintvet")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building sprintvet: %v\n%s", err, out)
	}

	vet := func(pkg string) (string, error) {
		cmd := exec.Command("go", "vet", "-vettool="+bin, pkg)
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	out, err := vet(violationsPkg)
	if err == nil {
		t.Fatalf("go vet -vettool over the violations fixture passed; want failure\n%s", out)
	}
	for _, a := range []string{"nondeterminism", "allocfree", "tracehook"} {
		if !strings.Contains(out, a) {
			t.Errorf("go vet output missing %s finding:\n%s", a, out)
		}
	}

	if out, err := vet("sprinting/internal/mem"); err != nil {
		t.Errorf("go vet -vettool over a clean package failed: %v\n%s", err, out)
	}
}
