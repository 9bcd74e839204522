package analysis_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sprinting/internal/analysis"
)

// deadExportsAllow names the internal declarations TestNoDeadExports
// keeps although no non-test code uses them. Every entry carries its
// reason.
var deadExportsAllow = map[string]string{
	"sprinting/internal/analysis/analysistest.Run": "the analyzer fixture harness: a helper package that only tests import",
	"sprinting/internal/engine.Cache.Stats":        "the cache's hit/miss counters exist to be read here; the engine and experiments tests assert memoization through it",
	"sprinting/internal/isa.SliceStream":           "the fixed-instruction Stream that the isa, rt and archsim tests drive schedulers and machines with",
	"sprinting/internal/trace.Trace.Decisions":     "public API: sprinting.RunFleet returns the *trace.Trace, and the facade's trace example reads its decisions",
	"sprinting/internal/trace.Trace.Events":        "public API: sprinting.RunFleet returns the *trace.Trace, and the facade's trace example reads its events",
	"sprinting/internal/trace.Trace.Samples":       "public API: sprinting.RunFleet returns the *trace.Trace, and FleetTrace's doc offers its timeline samples beside Decisions and Events",
	"sprinting/internal/trace.Trace.TopRegret":     "public API: sprinting.RunFleet returns the *trace.Trace, and the facade's trace example reads its regret leaderboard",
}

// TestNoDeadExports keeps unused internal API deleted. It loads the root
// module and the bench module (a second module whose code calls into
// internal/fleet and internal/experiments) and fails on every
// package-level exported func, method, type, const or var under
// internal/, and on every unexported package-level func there, that no
// non-test file of either module uses. Exported struct fields are out of
// scope (JSON decoding reaches them by reflection), as is the public
// facade package at the module root.
func TestNoDeadExports(t *testing.T) {
	for _, d := range unallowed(t, deadExports, []string{"../..", "../../bench"}, "sprinting/internal/", deadExportsAllow) {
		t.Errorf("%s: %s %s has no non-test use: delete it, or move a test-only oracle into a _test.go file", d.pos, d.kind, d.key)
	}
}

// TestDeadExportsFixture runs the check over a two-module fixture so a
// check that silently reports nothing cannot pass: testdata/deadexports/app
// is the module under test, and testdata/deadexports/bench stands in for
// the bench module that calls into it.
func TestDeadExportsFixture(t *testing.T) {
	allow := map[string]string{"deadfix/internal/lib.Allowed": "fixture: an allowlisted export is not reported"}
	var got []string
	for _, d := range unallowed(t, deadExports, []string{"testdata/deadexports/app", "testdata/deadexports/bench"}, "deadfix/internal/", allow) {
		got = append(got, d.key)
	}
	want := []string{
		"deadfix/internal/lib.Dead",
		"deadfix/internal/lib.DeadConst",
		"deadfix/internal/lib.DeadType",
		"deadfix/internal/lib.DeadVar",
		"deadfix/internal/lib.Square.Perimeter",
		"deadfix/internal/lib.TestOnly",
		"deadfix/internal/lib.unusedHelper",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dead exports:\n got %q\nwant %q", got, want)
	}
}

// writeOnlyAllow names the internal struct fields TestNoWriteOnlyFields
// keeps although no non-test code reads them. Every entry carries its
// reason.
var writeOnlyAllow = map[string]string{
	"sprinting/internal/thermal.Network.ambientOutJ": "the energy-conservation ledger's outflow: thermal's tests read it through export_test.go to check the network conserves energy",
	"sprinting/internal/thermal.Network.injectedJ":   "the energy-conservation ledger's inflow: thermal's tests read it through export_test.go to check the network conserves energy",
}

// TestNoWriteOnlyFields keeps write-only state deleted, the way
// TestNoDeadExports keeps unused API deleted: over the same two modules,
// it fails on every unexported struct field under internal/ that no
// non-test file reads. A write is a selector on the left of an
// assignment or an increment/decrement, or a composite-literal key; any
// other use of the field reads it.
func TestNoWriteOnlyFields(t *testing.T) {
	for _, d := range unallowed(t, writeOnlyFields, []string{"../..", "../../bench"}, "sprinting/internal/", writeOnlyAllow) {
		t.Errorf("%s: field %s is never read outside tests: delete it, or allowlist it with the reason it is kept", d.pos, d.key)
	}
}

// TestWriteOnlyFieldsFixture runs the write-only check over the
// dead-export fixture, whose lib package declares fields written only by
// assignment, increment and composite-literal key, one read only by
// lib_test.go, and one set by a composite-literal key and then read.
func TestWriteOnlyFieldsFixture(t *testing.T) {
	var got []string
	for _, d := range unallowed(t, writeOnlyFields, []string{"testdata/deadexports/app", "testdata/deadexports/bench"}, "deadfix/internal/", nil) {
		got = append(got, d.key)
	}
	want := []string{
		"deadfix/internal/lib.DeadType.next",
		"deadfix/internal/lib.Tally.hits",
		"deadfix/internal/lib.Tally.testRead",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("write-only fields:\n got %q\nwant %q", got, want)
	}
}

// unallowed loads the modules rooted at dirs, runs the check find over
// them and drops the allowlisted findings. An allowlist entry that
// matches no finding fails the test, so the list cannot outlive its
// reasons.
func unallowed(t *testing.T, find func([]*analysis.Package, string) []deadDecl, dirs []string, prefix string, allow map[string]string) []deadDecl {
	t.Helper()
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		ps, err := analysis.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}
	dead := find(pkgs, prefix)
	var out []deadDecl
	matched := map[string]bool{}
	for _, d := range dead {
		if _, ok := allow[d.key]; ok {
			matched[d.key] = true
			continue
		}
		out = append(out, d)
	}
	for k := range allow {
		if !matched[k] {
			t.Errorf("allowlist entry %s matches no finding: remove it", k)
		}
	}
	return out
}

// deadDecl is one reportable declaration or struct field.
type deadDecl struct {
	key  string // import path, receiver type name for a method, name
	kind string
	pos  string
	// file and [lo, hi) bound the declaration's source, so that a
	// declaration's references to itself do not count as uses.
	file   string
	lo, hi int
}

// dynamicMethods are the method names the standard library calls through
// type assertions on interfaces that no loaded source declares: errors.Is
// and errors.As walk Unwrap, Is and As; fmt calls Error, String, Format
// and GoString; encoding/json calls the JSON and text (un)marshalers.
var dynamicMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true, "As": true,
	"Format": true, "GoString": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// deadExports returns, sorted by key, the declarations of the loaded
// packages whose import path starts with prefix that no non-test file
// uses. A method counts as used when its type's method set satisfies an
// interface that names it: any interface type the loaded code mentions,
// or one of the standard library's dynamicMethods.
func deadExports(pkgs []*analysis.Package, prefix string) []deadDecl {
	decls := map[string]*deadDecl{}
	var named []*types.Named
	for _, p := range pkgs {
		if strings.HasPrefix(p.Path, prefix) {
			named = append(named, collectDecls(p, decls)...)
		}
	}

	used := map[string]bool{}
	ifaces := map[string]*types.Interface{}
	for _, p := range pkgs {
		markUses(p, decls, used)
		seen := map[types.Type]bool{}
		for _, tv := range p.Info.Types {
			collectInterfaces(tv.Type, seen, ifaces)
		}
		for _, m := range []map[*ast.Ident]types.Object{p.Info.Defs, p.Info.Uses} {
			for _, obj := range m {
				if obj != nil {
					collectInterfaces(obj.Type(), seen, ifaces)
				}
			}
		}
	}
	for _, n := range named {
		markSatisfied(n, ifaces, used)
	}

	var dead []deadDecl
	for k, d := range decls {
		if !used[k] {
			dead = append(dead, *d)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return dead
}

// writeOnlyFields returns, sorted by key, the unexported fields of the
// struct types declared in the loaded packages whose import path starts
// with prefix that no non-test file reads. Only the declaring package can
// name an unexported field, so its own files decide.
func writeOnlyFields(pkgs []*analysis.Package, prefix string) []deadDecl {
	var out []deadDecl
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, prefix) {
			continue
		}
		fields := map[*types.Var]deadDecl{}
		writes := map[*ast.Ident]bool{}
		write := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				writes[sel.Sel] = true
			}
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok {
						break
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() || id.Name == "_" {
								continue
							}
							pos := p.Fset.Position(id.Pos())
							fields[p.Info.Defs[id].(*types.Var)] = deadDecl{
								key:  p.Path + "." + n.Name.Name + "." + id.Name,
								kind: "field",
								pos:  fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line),
							}
						}
					}
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						write(l)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								writes[id] = true
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.Info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				delete(fields, v.Origin())
			}
		}
		for _, d := range fields {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// collectDecls records the package's reportable declarations and returns
// its named non-interface types, whose methods may satisfy interfaces.
func collectDecls(p *analysis.Package, decls map[string]*deadDecl) []*types.Named {
	add := func(id *ast.Ident, kind string, node ast.Node) {
		obj := p.Info.Defs[id]
		if obj == nil {
			return
		}
		pos := p.Fset.Position(node.Pos())
		decls[objKey(obj)] = &deadDecl{
			key:  objKey(obj),
			kind: kind,
			pos:  fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line),
			file: pos.Filename,
			lo:   pos.Offset,
			hi:   p.Fset.Position(node.End()).Offset,
		}
	}
	var named []*types.Named
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil && d.Name.IsExported():
					add(d.Name, "method", d)
				case d.Recv == nil && d.Name.IsExported():
					add(d.Name, "func", d)
				case d.Recv == nil && d.Name.Name != "init" && d.Name.Name != "main" && d.Name.Name != "_":
					add(d.Name, "unexported func", d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if n, ok := p.Info.Defs[sp.Name].Type().(*types.Named); ok && !types.IsInterface(n) {
							named = append(named, n)
						}
						if sp.Name.IsExported() {
							add(sp.Name, "type", sp)
						}
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if id.IsExported() {
								add(id, strings.ToLower(d.Tok.String()), sp)
							}
						}
					}
				}
			}
		}
	}
	return named
}

// markUses marks every declaration the package's files refer to, except
// from inside the declaration itself or from a method receiver (a
// method's own receiver type is no use of that type).
func markUses(p *analysis.Package, decls map[string]*deadDecl, used map[string]bool) {
	recv := map[*ast.Ident]bool{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range p.Info.Uses {
		k := objKey(obj)
		d := decls[k]
		if d == nil || recv[id] {
			continue
		}
		pos := p.Fset.Position(id.Pos())
		if pos.Filename == d.file && pos.Offset >= d.lo && pos.Offset < d.hi {
			continue
		}
		used[k] = true
	}
}

// objKey names a package-level object or method the same way whether the
// type checker saw it from source or from export data. Other objects
// (locals, fields, interface methods) get a key no declaration has.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if n, ok := t.(*types.Named); ok && !types.IsInterface(n) {
				return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// collectInterfaces gathers, keyed by their printed form, the non-empty
// interface types reachable from t through composite types and
// signatures.
func collectInterfaces(t types.Type, seen map[types.Type]bool, out map[string]*types.Interface) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		collectInterfaces(types.Unalias(t), seen, out)
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out[types.TypeString(t, pathQualifier)] = it
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			collectInterfaces(t.TypeArgs().At(i), seen, out)
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			out[types.TypeString(t, pathQualifier)] = t
		}
	case *types.Pointer:
		collectInterfaces(t.Elem(), seen, out)
	case *types.Slice:
		collectInterfaces(t.Elem(), seen, out)
	case *types.Array:
		collectInterfaces(t.Elem(), seen, out)
	case *types.Chan:
		collectInterfaces(t.Elem(), seen, out)
	case *types.Map:
		collectInterfaces(t.Key(), seen, out)
		collectInterfaces(t.Elem(), seen, out)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			collectInterfaces(t.Field(i).Type(), seen, out)
		}
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			collectInterfaces(t.At(i).Type(), seen, out)
		}
	case *types.Signature:
		collectInterfaces(t.Params(), seen, out)
		collectInterfaces(t.Results(), seen, out)
	case *types.TypeParam:
		collectInterfaces(t.Constraint(), seen, out)
	}
}

// markSatisfied marks n's methods used when they are dynamicMethods or
// when n's pointer method set (which includes the value methods and any
// promoted ones) satisfies an interface that names them. Method
// signatures compare by printed form, because the same named type seen
// from source and from export data is two distinct types.Type values.
func markSatisfied(n *types.Named, ifaces map[string]*types.Interface, used map[string]bool) {
	ms := types.NewMethodSet(types.NewPointer(n))
	sigs := map[string]string{}
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj()
		sigs[m.Name()] = sigKey(m.Type().(*types.Signature))
		if dynamicMethods[m.Name()] {
			used[objKey(m)] = true
		}
	}
	for _, it := range ifaces {
		ok := true
		for i := 0; i < it.NumMethods() && ok; i++ {
			m := it.Method(i)
			ok = sigs[m.Name()] == sigKey(m.Type().(*types.Signature))
		}
		if !ok {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
				used[objKey(sel.Obj())] = true
			}
		}
	}
}

// sigKey prints a signature's parameter and result types without their
// names.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	tuple := func(t *types.Tuple) {
		b.WriteByte('(')
		for i := 0; i < t.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(types.TypeString(t.At(i).Type(), pathQualifier))
		}
		b.WriteByte(')')
	}
	tuple(sig.Params())
	if sig.Variadic() {
		b.WriteString("...")
	}
	tuple(sig.Results())
	return b.String()
}

func pathQualifier(p *types.Package) string { return p.Path() }
