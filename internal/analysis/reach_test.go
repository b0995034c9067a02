package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"squatphi/internal/analysis/callgraph"
)

// reachKeep lists functions no binary reaches that stay on purpose, one
// reason each, keyed by call-graph node name. A kept function is a root:
// what it calls stays too.
var reachKeep = map[string]string{
	"core.(*Pipeline).Reinforce":       "retraining on confirmed detections, a §7 extension EXPERIMENTS.md cites",
	"core.(*Pipeline).ReportConfirmed": "reporting confirmed phish to the blacklists, a §7 extension EXPERIMENTS.md cites",
	"faultx.NewTransport":              "HTTP fault injector the crawler chaos suite drives",
	"faultx.WrapConn":                  "UDP fault injector the dnsx chaos suite drives",
	"faultx.Faults.HTTPFault":          "replay oracle the crawler chaos suite computes expected counters from",
	"features.NewExtractor":            "serial reference TestFitMatchesNewExtractor compares Fit against",
	"imghash.Average":                  "aHash, compared against pHash by BenchmarkAblationImageHash (DESIGN §4)",
	"imghash.Difference":               "dHash, compared against pHash by BenchmarkAblationImageHash (DESIGN §4)",
	"simrand.(*RNG).NormFloat64":       "Gaussian draws the ml tests and the root benchmarks build datasets from",
}

// programLoader loads packages without their _test.go files: a function
// only tests call is dead program code. It shares sharedLoader's file set
// and standard-library importer (lock included: the source importer is
// not safe for concurrent use), so the standard library is type-checked
// once per test binary, but checks its own module packages: a test-free
// load must not see in-package test declarations.
var programLoader = sync.OnceValues(func() (*Loader, error) {
	shared, err := sharedLoader()
	if err != nil {
		return nil, err
	}
	return &Loader{
		Root:   shared.Root,
		Module: shared.Module,
		fset:   shared.fset,
		imp: &lockedImporter{
			mu:      shared.imp.mu,
			imp:     shared.imp.imp,
			checked: map[string]*types.Package{},
		},
	}, nil
})

// unreachable loads patterns without tests, builds the call graph and
// returns "path:line: name" for every declared function no root reaches,
// in graph order. The roots are every init, every main under a cmd/ or
// benchmark/ path segment, every address-taken function, every function
// named in a package-level initialiser, and keep, every entry of which
// must name a function in the load. A reached function reaches its
// callees and the function literals in its body. A type built in reached
// code or a package-level initialiser — a composite literal, new(T) or a
// conversion T(x) — reaches its methods that implement an interface: the
// standard library calls String, Len, ImportFrom, ... through interfaces
// whose call sites the graph does not load. A type nothing builds keeps
// no method alive that way, and the walk runs until no new type is built.
func unreachable(t *testing.T, keep map[string]string, patterns ...string) []string {
	t.Helper()
	l, err := programLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		t.Fatal(err)
	}
	var units []*callgraph.Unit
	for _, p := range pkgs {
		units = append(units, &callgraph.Unit{ImportPath: p.ImportPath, Files: p.Files, Pkg: p.Types, Info: p.Info})
	}
	g := callgraph.Build(l.fset, units)
	litNode := map[*ast.FuncLit]*callgraph.Node{}
	for _, n := range g.Nodes {
		if n.Lit != nil {
			litNode[n.Lit] = n
		}
	}

	stale := map[string]bool{}
	for name := range keep {
		stale[name] = true
	}
	reached := map[*callgraph.Node]bool{}
	var queue []*callgraph.Node
	mark := func(n *callgraph.Node) {
		if n != nil && !reached[n] {
			reached[n] = true
			queue = append(queue, n)
		}
	}
	ifaceMethods := interfaceMethods(pkgs)
	built := map[*types.TypeName]bool{}
	// build marks the interface methods of the named type x builds, if x
	// is a composite literal, a new or a conversion.
	build := func(info *types.Info, x ast.Node) {
		var t types.Type
		switch x := x.(type) {
		case *ast.CompositeLit:
			t = info.TypeOf(x)
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				t = tv.Type
			} else if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && len(x.Args) == 1 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
					t = info.TypeOf(x.Args[0])
				}
			}
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || built[named.Origin().Obj()] {
			return
		}
		built[named.Origin().Obj()] = true
		for _, fn := range ifaceMethods[named.Origin().Obj()] {
			mark(g.NodeOf(fn))
		}
	}
	for _, n := range g.Nodes {
		if n.Decl == nil {
			continue
		}
		name, path := n.Decl.Name.Name, n.Unit.ImportPath
		isMain := name == "main" && n.Unit.Pkg.Name() == "main" &&
			(pathHasSegment(path, "cmd") || pathHasSegment(path, "benchmark"))
		_, kept := keep[n.Name]
		if n.Decl.Recv == nil && (name == "init" || isMain) || n.AddrTaken || kept {
			mark(n)
		}
		delete(stale, n.Name)
	}
	for name := range stale {
		t.Errorf("keep entry %s names no function; drop it", name)
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if _, isFunc := d.(*ast.FuncDecl); isFunc {
					continue
				}
				ast.Inspect(d, func(x ast.Node) bool {
					switch x := x.(type) {
					case *ast.Ident:
						if fn, ok := p.Info.Uses[x].(*types.Func); ok {
							mark(g.NodeOf(fn.Origin()))
						}
					case *ast.FuncLit:
						mark(litNode[x])
					}
					build(p.Info, x)
					return true
				})
			}
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			mark(e.Callee)
		}
		if body := n.Body(); body != nil {
			ast.Inspect(body, func(x ast.Node) bool {
				if lit, ok := x.(*ast.FuncLit); ok {
					mark(litNode[lit])
				}
				build(n.Unit.Info, x)
				return true
			})
		}
	}
	var dead []string
	for _, n := range g.Nodes {
		if n.Decl != nil && !reached[n] {
			pos := l.fset.Position(n.Pos())
			rel, err := filepath.Rel(l.Root, pos.Filename)
			if err != nil {
				t.Fatal(err)
			}
			dead = append(dead, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), pos.Line, n.Name))
		}
	}
	return dead
}

// interfaceMethods returns, by type, the methods of the loaded packages'
// named types that implement an interface: a named interface of any
// package in the import closure, or an interface type written in the
// loaded code.
func interfaceMethods(pkgs []*Package) map[*types.TypeName][]*types.Func {
	// Interfaces by the name of their first method, so a type is only
	// tested against interfaces that share a method name with it.
	byFirst := map[string][]*types.Interface{}
	added := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !added[it] {
			added[it] = true
			byFirst[it.Method(0).Name()] = append(byFirst[it.Method(0).Name()], it)
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	out := map[*types.TypeName][]*types.Func{}
	for _, p := range pkgs {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				mset := types.NewMethodSet(typ)
				for i := 0; i < mset.Len(); i++ {
					for _, it := range byFirst[mset.At(i).Obj().Name()] {
						if !types.Implements(typ, it) {
							continue
						}
						for j := 0; j < it.NumMethods(); j++ {
							obj, _, _ := types.LookupFieldOrMethod(typ, true, p.Types, it.Method(j).Name())
							if fn, ok := obj.(*types.Func); ok {
								out[tn] = append(out[tn], fn.Origin())
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestReachability: every function of the program is reached from a
// binary, or kept on purpose in reachKeep. Delete what it lists; a
// helper only tests need belongs in a _test.go file.
func TestReachability(t *testing.T) {
	t.Run("fixture", func(t *testing.T) {
		got := unreachable(t, nil, filepath.Join("testdata", "analysis", "reach")+"/...")
		want := []string{
			"internal/analysis/testdata/analysis/reach/lib/lib.go:41: lib.Dead",
			"internal/analysis/testdata/analysis/reach/lib/lib.go:46: lib.(*counter).unused",
			"internal/analysis/testdata/analysis/reach/lib/lib.go:52: lib.ghost.String",
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("unreachable = %q, want %q", got, want)
		}
	})
	t.Run("repo", func(t *testing.T) {
		for _, d := range unreachable(t, reachKeep, "../../...") {
			t.Errorf("%s is reached from no binary; delete it or add it to reachKeep with a reason", d)
		}
	})
}
