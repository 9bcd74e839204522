// The tracehook analyzer. The flight recorder's zero-cost-when-off
// contract (internal/fleet/trace.go) hangs on one convention: the
// recorder is a nil pointer on the sim unless the run's trace level is
// on, and every hook call from simulator code is
// guarded by a nil check on that pointer. An unguarded call is a panic
// on every untraced run — the overwhelmingly common case — and the
// runtime tests only catch it on the paths they happen to execute.
//
// The analyzer finds the package's `recorder` type and requires every
// method call on a recorder-typed receiver outside the declaring file
// to be dominated by a guard, in either shape the codebase uses:
//
//	if rec != nil { rec.hook(...) }          // enclosing guard
//	if rec == nil { return }; rec.hook(...)  // early return
//
// The file that declares the type is exempt (the recorder's own
// methods and constructors manage their receiver), as are calls inside
// recorder methods themselves.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TraceHookAnalyzer requires recorder hook calls to be nil-guarded.
var TraceHookAnalyzer = &Analyzer{
	Name: "tracehook",
	Doc:  "require every recorder hook call outside the declaring file to be dominated by a rec != nil guard",
	Run:  runTraceHook,
}

func runTraceHook(pass *Pass) error {
	rec := recorderType(pass.Pkg)
	if rec == nil {
		return nil
	}
	declFile := pass.Fset.Position(rec.Obj().Pos()).Filename
	for _, f := range pass.Files {
		if pass.Fset.Position(f.Pos()).Filename == declFile {
			continue
		}
		checkHookFile(pass, f, rec)
	}
	return nil
}

// recorderType finds the package-scoped named type `recorder`, if any.
func recorderType(pkg *types.Package) *types.Named {
	obj := pkg.Scope().Lookup("recorder")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	return named
}

// isRecorderType reports whether t is the recorder type or a pointer
// to it.
func isRecorderType(t types.Type, rec *types.Named) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == rec.Obj()
}

// checkHookFile walks one file, tracking the ancestor stack, and flags
// unguarded recorder method calls.
func checkHookFile(pass *Pass, f *ast.File, rec *types.Named) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !isRecorderType(pass.TypesInfo.TypeOf(sel.X), rec) {
			return true
		}
		if _, isMethod := pass.TypesInfo.Selections[sel]; !isMethod {
			return true // field access producing a func value, not a hook
		}
		recv := types.ExprString(ast.Unparen(sel.X))
		if enclosingMethodOnRecorder(pass, stack, rec) {
			return true
		}
		if dominatedByNilGuard(pass, stack, recv) {
			return true
		}
		pass.Reportf(call.Pos(), "call to recorder.%s is not dominated by a nil guard: wrap it in `if %s != nil { ... }` (the recorder is nil on every untraced run)", sel.Sel.Name, recv)
		return true
	})
}

// enclosingMethodOnRecorder reports whether the innermost enclosing
// function declaration is a method on the recorder type.
func enclosingMethodOnRecorder(pass *Pass, stack []ast.Node, rec *types.Named) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		fd, ok := stack[i].(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Recv == nil || len(fd.Recv.List) == 0 {
			return false
		}
		return isRecorderType(pass.TypesInfo.TypeOf(fd.Recv.List[0].Type), rec)
	}
	return false
}

// dominatedByNilGuard reports whether the call site (top of stack) is
// dominated by a nil check on recv: an enclosing `if recv != nil`
// whose then-branch contains the call, or an earlier `if recv == nil`
// sibling whose body unconditionally leaves the block.
func dominatedByNilGuard(pass *Pass, stack []ast.Node, recv string) bool {
	for i := len(stack) - 2; i >= 1; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if ok && stack[i+1] == ifs.Body && condChecksNotNil(ifs.Cond, recv) {
			return true
		}
		// At each enclosing block, scan the statements before the one
		// containing the call for an early-return guard.
		blk, ok := stack[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		containing := stack[i+1]
		for _, st := range blk.List {
			if st == containing {
				break
			}
			g, ok := st.(*ast.IfStmt)
			if ok && condChecksIsNil(g.Cond, recv) && bodyDiverts(g.Body) {
				return true
			}
		}
	}
	return false
}

// condChecksNotNil reports whether the condition contains
// `recv != nil` as a conjunct (any operand of && chains).
func condChecksNotNil(cond ast.Expr, recv string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			return condChecksNotNil(e.X, recv) || condChecksNotNil(e.Y, recv)
		}
		return e.Op == token.NEQ && isNilCheckOf(e, recv)
	}
	return false
}

// condChecksIsNil reports whether the condition is `recv == nil`
// (possibly inside || chains — any disjunct guarding the exit).
func condChecksIsNil(cond ast.Expr, recv string) bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		if e.Op == token.LOR {
			return condChecksIsNil(e.X, recv) || condChecksIsNil(e.Y, recv)
		}
		return e.Op == token.EQL && isNilCheckOf(e, recv)
	}
	return false
}

// isNilCheckOf reports whether the comparison has nil on one side and
// an expression spelled recv on the other.
func isNilCheckOf(e *ast.BinaryExpr, recv string) bool {
	isNil := func(x ast.Expr) bool {
		id, ok := ast.Unparen(x).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	matches := func(x ast.Expr) bool {
		return types.ExprString(ast.Unparen(x)) == recv
	}
	return (isNil(e.X) && matches(e.Y)) || (isNil(e.Y) && matches(e.X))
}

// bodyDiverts reports whether the block's last statement
// unconditionally leaves the enclosing block (return, panic, continue,
// break, or goto).
func bodyDiverts(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
