// Command sprintvet is the multichecker for the sprinting module's
// first-party static-analysis suite (internal/analysis): the
// nondeterminism (map-order float accumulation included), allocfree,
// and tracehook analyzers that enforce the simulator's determinism and
// hot-path contracts.
//
// It runs two ways:
//
//	sprintvet [packages]            # standalone, defaults to ./...
//	go vet -vettool=$(pwd)/bin/sprintvet ./...
//
// The second form speaks cmd/go's vet-tool protocol (the same one
// golang.org/x/tools/go/analysis/unitchecker implements): go vet
// invokes the tool once per package with a JSON config file argument
// ending in .cfg that names the sources and the export data of every
// dependency, and the tool type-checks the unit, runs the analyzers,
// prints findings to stderr, and exits non-zero if there were any.
//
// Findings are suppressed in place with `//sprintvet:ignore
// <analyzer>[,<analyzer>] <reason>`; the reason is mandatory and a
// malformed directive is itself a finding. Exit status: 0 clean,
// 1 internal error, 2 findings.
package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"sprinting/internal/analysis"
)

// version is reported to `sprintvet -V=full`, which cmd/go hashes into
// its vet result cache key: bump it when analyzer behavior changes so
// stale clean verdicts are not replayed from the cache.
const version = "v1.0.0"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	for _, a := range args {
		// cmd/go probes the tool's identity for its cache key.
		if a == "-V=full" || a == "-V" {
			fmt.Fprintf(stdout, "sprintvet version %s\n", version)
			return 0
		}
		// cmd/go may query the tool's analyzer flags; sprintvet has none.
		if a == "-flags" {
			fmt.Fprintln(stdout, "[]")
			return 0
		}
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runUnit(args[0], stderr)
	}
	return runStandalone(args, stdout, stderr)
}

// runStandalone loads the patterns (default ./...) from the current
// directory and reports every finding.
func runStandalone(patterns []string, stdout, stderr io.Writer) int {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "sprintvet: %v\n", err)
		return 1
	}
	diags, err := analysis.Run(pkgs, analysis.Analyzers())
	if err != nil {
		fmt.Fprintf(stderr, "sprintvet: %v\n", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	var fset *token.FileSet
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		name := pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				name = rel
			}
		}
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	return 2
}

// unitConfig is the JSON config cmd/go hands a vet tool for one
// compilation unit (the same schema unitchecker consumes; unknown
// fields are ignored).
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes one unit under the go vet protocol.
func runUnit(cfgPath string, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(stderr, "sprintvet: %v\n", err)
		return 1
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "sprintvet: %s: %v\n", cfgPath, err)
		return 1
	}
	// The protocol requires the facts file to exist even though
	// sprintvet's analyzers exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(stderr, "sprintvet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	imp := analysis.ExportDataImporter(fset, func(path string) (string, bool) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	})
	pkg, err := analysis.CheckFiles(fset, imp, cfg.ImportPath, cfg.Dir, cfg.GoFiles, goVersion(cfg.GoVersion))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(stderr, "sprintvet: %v\n", err)
		return 1
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, analysis.Analyzers())
	if err != nil {
		fmt.Fprintf(stderr, "sprintvet: %v\n", err)
		return 1
	}
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(stderr, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	return 2
}

// goVersion normalizes cmd/go's GoVersion field ("go1.24.0") to the
// "go1.24" language-version form go/types accepts, dropping anything
// unparseable.
func goVersion(v string) string {
	if !strings.HasPrefix(v, "go1") {
		return ""
	}
	parts := strings.SplitN(v, ".", 3)
	if len(parts) >= 2 {
		return parts[0] + "." + parts[1]
	}
	return v
}
