package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/GOLDEN_modes.txt from the current output")

// goldenModes is one invocation per run mode, in an order where later
// modes may read files earlier ones wrote ($TMP is a per-test directory).
// traced names the JSONL recording whose sha256 the golden keeps.
var goldenModes = []struct {
	name   string
	args   []string
	traced string
}{
	{name: "plain", args: []string{"-nodes", "4", "-requests", "300", "-policy", "sprint-aware"}},
	{name: "all policies x all coordinations", args: []string{"-nodes", "8", "-requests", "400",
		"-policy", "all", "-coordination", "all", "-rack-size", "4", "-seed", "7"}},
	{name: "plain invalid config", args: []string{"-nodes", "-3", "-requests", "100", "-policy", "least-loaded"}},
	{name: "plain trace", args: []string{"-nodes", "4", "-requests", "300", "-policy", "sprint-aware",
		"-trace", "$TMP/rec.jsonl", "-trace-summary"}, traced: "$TMP/rec.jsonl"},
	{name: "scenario", args: []string{"-scenario", "testdata/modes_scenario.json", "-nodes", "4",
		"-policy", "all", "-coordination", "token-permit", "-rack-size", "2"}},
	{name: "scenario trace", args: []string{"-scenario", "testdata/modes_scenario.json", "-nodes", "4",
		"-policy", "sprint-aware", "-coordination", "token-permit", "-rack-size", "2",
		"-trace", "$TMP/scen.jsonl", "-trace-level", "full", "-trace-summary"}, traced: "$TMP/scen.jsonl"},
	{name: "workload", args: []string{"-workload", "testdata/modes_workload.json", "-nodes", "4",
		"-policy", "all", "-timeout-s", "6", "-max-retries", "1"}},
	{name: "workload invalid config", args: []string{"-workload", "testdata/modes_workload.json", "-nodes", "4",
		"-policy", "sprint-aware", "-queue", "-1"}},
	{name: "scenario invalid config", args: []string{"-scenario", "testdata/modes_scenario.json", "-nodes", "-2",
		"-policy", "sprint-aware"}},
	{name: "scenario workload", args: []string{"-scenario", "testdata/modes_scenario.json",
		"-workload", "testdata/modes_workload.json", "-nodes", "4", "-policy", "sprint-aware", "-coordination", "all"}},
	{name: "convert-trace", args: []string{"-convert-trace", "$TMP/rec.jsonl", "-replay-out", "$TMP/rec.csv"}},
	{name: "replay recording", args: []string{"-replay", "$TMP/rec.csv", "-nodes", "4",
		"-policy", "sprint-aware", "-coordination", "none"}},
	{name: "replay labeled", args: []string{"-replay", "testdata/modes_replay.csv", "-nodes", "3",
		"-policy", "hedged", "-coordination", "uncoordinated", "-rack-size", "3"}},
}

// TestGoldenModes pins fleetsim's stdout and exit code in every run mode
// against testdata/GOLDEN_modes.txt, plus the sha256 of each recording a
// traced mode writes. Refresh with `go test ./cmd/fleetsim -run
// GoldenModes -update` after an intentional output change.
func TestGoldenModes(t *testing.T) {
	dir := t.TempDir()
	var got bytes.Buffer
	for _, mode := range goldenModes {
		args := make([]string, len(mode.args))
		for i, a := range mode.args {
			args[i] = strings.ReplaceAll(a, "$TMP", dir)
		}
		var out, errb bytes.Buffer
		code := run(context.Background(), args, &out, &errb)
		fmt.Fprintf(&got, "=== %s\n$ fleetsim %s\nexit %d\n%s", mode.name, strings.Join(mode.args, " "), code,
			strings.ReplaceAll(out.String(), dir, "$TMP"))
		if mode.traced != "" {
			data, err := os.ReadFile(strings.ReplaceAll(mode.traced, "$TMP", dir))
			if err != nil {
				t.Fatalf("%s: %v", mode.name, err)
			}
			fmt.Fprintf(&got, "sha256 %s %x\n", mode.traced, sha256.Sum256(data))
		}
	}
	path := filepath.Join("testdata", "GOLDEN_modes.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
