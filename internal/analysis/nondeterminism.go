// The nondeterminism analyzer. The simulator's headline contract —
// same configuration, same bytes, at any worker count (PR 6) and with
// the flight recorder attached (PR 7) — survives only while sim code
// never consults a source of ambient nondeterminism. Three families
// break it:
//
//   - wall-clock reads (time.Now / time.Since): simulated time comes
//     from the event clock, never the host;
//   - global randomness: math/rand's top-level functions draw from the
//     shared process source, and a rand.New whose source is not
//     visibly constructed from a seed cannot be audited for replay;
//   - map iteration with order-dependent effects: Go randomizes range
//     order per run, so a body that mutates enclosing state, appends
//     derived values, or returns an iteration-dependent result yields
//     different bytes on different runs. Extracting keys for sorting
//     (`for k := range m { keys = append(keys, k) }`) is the blessed
//     idiom and is exempt, as are exactly-commutative updates (integer
//     counters, keyed inserts into another map).
//
// Floating-point accumulation under map iteration (compound assignment,
// x = x ± e self-reference, increment) gets its own diagnostic: float
// addition is not associative, so the sum's last ulp follows the map
// order, where the engine reduces every float in a canonical order (see
// docs/ARCHITECTURE.md "Sharded execution"). The fix is mechanical:
// extract the keys, sort them, and reduce over the sorted slice.
//
// Goroutine launches are confined to the blessed concurrency files
// (shard.go's decoupled shard loops, engine.go's worker pool): any
// other `go` statement is an unserialized event source until proven
// otherwise.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// NondeterminismAnalyzer flags wall-clock reads, global randomness, and
// order-dependent map iteration in simulator packages.
var NondeterminismAnalyzer = &Analyzer{
	Name:      "nondeterminism",
	Doc:       "forbid wall clocks, global randomness, order-dependent map iteration, and stray goroutines in sim code",
	AppliesTo: isSimPackage,
	Run:       runNondeterminism,
}

// isSimPackage reports whether the import path is under the
// determinism contract: the whole module except the analysis suite
// itself (which runs offline, outside any simulation).
func isSimPackage(pkgPath string) bool {
	pkgPath = strings.TrimSuffix(pkgPath, ".test")
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		// go vet analyzes test variants under "pkg [pkg.test]" paths.
		pkgPath = pkgPath[:i]
	}
	if pkgPath == "sprinting" {
		return true
	}
	if !strings.HasPrefix(pkgPath, "sprinting/") {
		return false
	}
	return pkgPath != "sprinting/internal/analysis" &&
		!strings.HasPrefix(pkgPath, "sprinting/internal/analysis/")
}

// blessedGoFiles are the file basenames allowed to launch goroutines:
// the sharded event loops and the engine worker pool, whose schedules
// are proven equivalent to the serial order by the pinned tests.
var blessedGoFiles = map[string]bool{
	"shard.go":  true,
	"engine.go": true,
}

// seededSourceCtors are the math/rand constructors that make a
// rand.New auditable: the seed is visible at the call site.
var seededSourceCtors = map[string]bool{
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// exemptRandFuncs are the package-level math/rand functions that do
// not touch the global source.
var exemptRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func runNondeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		base := path.Base(pass.Fset.Position(f.Pos()).Filename)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, n)
			case *ast.GoStmt:
				if !blessedGoFiles[base] {
					pass.Reportf(n.Pos(), "goroutine launched outside the blessed concurrency files (shard.go, engine.go): sim execution order must be serializable")
				}
			case *ast.RangeStmt:
				if isMapType(pass.TypesInfo.TypeOf(n.X)) {
					checkMapRange(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkNondetCall flags wall-clock and global-randomness calls.
func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			if fn.Name() == "Now" || fn.Name() == "Since" {
				pass.Reportf(call.Pos(), "call to time.%s in sim code: simulated time must come from the event clock, not the wall clock", fn.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() != nil {
			return // methods on a seeded *rand.Rand are fine
		}
		name := fn.Name()
		if !exemptRandFuncs[name] {
			pass.Reportf(call.Pos(), "top-level %s.%s draws from the process-global source: use a rand.New(rand.NewSource(seed)) stream owned by the configuration", path.Base(fn.Pkg().Path()), name)
			return
		}
		if name == "New" {
			checkRandNew(pass, call)
		}
	}
}

// checkRandNew requires rand.New's source to be constructed inline by
// a seeded constructor, so the seed provenance is auditable at the
// call site.
func checkRandNew(pass *Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
		fn := calleeFunc(pass.TypesInfo, inner)
		if fn != nil && fn.Pkg() != nil &&
			(fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2") &&
			seededSourceCtors[fn.Name()] {
			return
		}
	}
	pass.Reportf(call.Pos(), "rand.New with a source not constructed inline from a seed: write rand.New(rand.NewSource(seed)) so the stream is auditable for replay")
}

// checkMapRange flags order-dependent effects inside a range-over-map
// body.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	if isOrderedKeyExtraction(pass, rng) {
		return
	}
	lo, hi := rng.Pos(), rng.End()
	info := pass.TypesInfo
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if n != rng && isMapType(info.TypeOf(n.X)) {
				return false // the nested map range is checked on its own
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, n, lo, hi)
		case *ast.IncDecStmt: // integer counters commute exactly
			root := rootIdent(n.X)
			if root != nil && !declaredWithin(info, root, lo, hi) && isFloat(info.TypeOf(n.X)) {
				pass.Reportf(n.Pos(), "floating-point %s of %s inside map iteration: rounding accumulates in map order", incDecName(n.Tok), root.Name)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsLocal(info, res, lo, hi) {
					pass.Reportf(n.Pos(), "return of an iteration-dependent value from inside map iteration: which element returns first depends on map order")
					break
				}
			}
		}
		return true
	})
}

// isOrderedKeyExtraction recognizes the blessed sort-the-keys idiom: a
// body that only appends the range key to an enclosing slice.
func isOrderedKeyExtraction(pass *Pass, rng *ast.RangeStmt) bool {
	if len(rng.Body.List) != 1 {
		return false
	}
	asg, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || asg.Tok != token.ASSIGN || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := ast.Unparen(asg.Rhs[0]).(*ast.CallExpr)
	if !ok || !isBuiltin(pass.TypesInfo, call, "append") || len(call.Args) != 2 || call.Ellipsis.IsValid() {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(arg) != pass.TypesInfo.ObjectOf(key) {
		return false
	}
	dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	lhs, ok := ast.Unparen(asg.Lhs[0]).(*ast.Ident)
	return ok && pass.TypesInfo.ObjectOf(lhs) == pass.TypesInfo.ObjectOf(dst)
}

// checkMapRangeAssign classifies one assignment inside a map-range
// body. Float accumulation (compound or spelled out) is reported as
// such, even into a keyed slot. Exactly-commutative updates are exempt:
// integer/bool compound assignment and increments (bit-exact in any
// order) and inserts into another map keyed by an iteration-derived key
// (each iteration owns its slot).
func checkMapRangeAssign(pass *Pass, asg *ast.AssignStmt, lo, hi token.Pos) {
	info := pass.TypesInfo
	if asg.Tok == token.DEFINE {
		return // declares body-locals
	}
	for i, lhs := range asg.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		root := rootIdent(lhs)
		if root == nil || declaredWithin(info, root, lo, hi) {
			continue // mutation of iteration-local state
		}
		t := info.TypeOf(lhs)
		if isFloat(t) && (asg.Tok != token.ASSIGN || i < len(asg.Rhs) && selfReferencingArith(info, lhs, asg.Rhs[i])) {
			pass.Reportf(asg.Pos(), "floating-point accumulation into %s inside map iteration: the sum depends on map order; reduce over sorted keys", root.Name)
			continue
		}
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && mentionsLocal(info, idx.Index, lo, hi) {
			// m2[k] = v (or slice[f(k)] = v): each iteration owns its
			// slot, so the write set is order-independent.
			continue
		}
		if asg.Tok != token.ASSIGN {
			// Compound assignment: exact arithmetic commutes, strings
			// concatenate in map order.
			if isString(t) {
				pass.Reportf(asg.Pos(), "string concatenation into %s inside map iteration: the result depends on map order", root.Name)
			}
			continue
		}
		pass.Reportf(asg.Pos(), "assignment to %s inside map iteration: the surviving value depends on map order", root.Name)
	}
}

// selfReferencingArith reports whether rhs is an arithmetic expression
// that mentions lhs itself (sum = sum + x, sum = x + sum, p = p * w...),
// the spelled-out form of a compound accumulation.
func selfReferencingArith(info *types.Info, lhs, rhs ast.Expr) bool {
	bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	want := types.ExprString(ast.Unparen(lhs))
	found := false
	ast.Inspect(bin, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(ast.Unparen(e)) == want {
			found = true
		}
		return !found
	})
	return found
}

// incDecName names the ++/-- token for diagnostics.
func incDecName(tok token.Token) string {
	if tok == token.INC {
		return "increment"
	}
	return "decrement"
}
