package callgraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// buildSingle type-checks one in-memory file (no imports) and builds its
// graph, returning the graph and the package for object lookups.
func buildSingle(t *testing.T, src string) (*Graph, *types.Package) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{}
	pkg, err := conf.Check("fix", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(fset, []*Unit{{ImportPath: "fix", Files: []*ast.File{f}, Pkg: pkg, Info: info}})
	return g, pkg
}

// lookupFunc resolves a package-level function by name.
func lookupFunc(t *testing.T, pkg *types.Package, name string) *types.Func {
	t.Helper()
	fn, ok := pkg.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("no function %s in %s", name, pkg.Path())
	}
	return fn
}

// edges returns every edge from caller to callee.
func edges(caller, callee *Node) []*Edge {
	var out []*Edge
	for _, e := range caller.Out {
		if e.Callee == callee {
			out = append(out, e)
		}
	}
	return out
}

const fixtureSrc = `package fix

type T struct{}

func (t *T) M() int { return f() }

type I interface{ M() int }

func f() int { return 1 }

func g() int {
	v := f
	n := v()
	n += func() int { return 2 }()
	var i I
	n += i.M()
	go f()
	defer f()
	return n
}
`

func TestBuildEdges(t *testing.T) {
	g, pkg := buildSingle(t, fixtureSrc)

	nf := g.NodeOf(lookupFunc(t, pkg, "f"))
	ng := g.NodeOf(lookupFunc(t, pkg, "g"))
	if nf == nil || ng == nil {
		t.Fatal("missing nodes for f or g")
	}
	if nf.Name != "fix.f" || ng.Name != "fix.g" {
		t.Errorf("names = %q, %q; want fix.f, fix.g", nf.Name, ng.Name)
	}
	if !nf.AddrTaken {
		t.Error("f must be address-taken (v := f)")
	}
	if ng.AddrTaken {
		t.Error("g is never referenced as a value")
	}

	// g→f: one dynamic edge (v()), one static go edge, one static defer
	// edge.
	gf := edges(ng, nf)
	if len(gf) != 3 {
		t.Fatalf("got %d g→f edges, want 3: %v", len(gf), gf)
	}
	var goEdge, deferEdge, dynEdge int
	for _, e := range gf {
		switch {
		case e.Go:
			goEdge++
			if e.Kind != Static {
				t.Errorf("go f() edge kind = %v, want Static", e.Kind)
			}
		case e.Defer:
			deferEdge++
		case e.Kind == Dynamic:
			dynEdge++
		default:
			t.Errorf("unexpected g→f edge %+v", e)
		}
	}
	if goEdge != 1 || deferEdge != 1 || dynEdge != 1 {
		t.Errorf("g→f edges go/defer/dyn = %d/%d/%d, want 1/1/1", goEdge, deferEdge, dynEdge)
	}

	// The immediately-invoked literal is its own node with a static edge
	// from g, and it is not address-taken.
	var lit *Node
	for _, n := range g.Nodes {
		if n.Lit != nil && n.Name == "fix.g.func" {
			lit = n
		}
	}
	if lit == nil {
		t.Fatal("no node for g's function literal")
	}
	if lit.AddrTaken {
		t.Error("immediately-invoked literal must not be address-taken")
	}
	if le := edges(ng, lit); len(le) != 1 || le[0].Kind != Static {
		t.Errorf("g→lit edges = %v, want one static", le)
	}

	// i.M() dispatches through the interface to the only same-name,
	// same-signature concrete method, (*T).M; and (*T).M calls f.
	tObj := pkg.Scope().Lookup("T").Type().(*types.Named)
	m := tObj.Method(0)
	nm := g.NodeOf(m)
	if nm == nil {
		t.Fatal("missing node for (*T).M")
	}
	if nm.Name != "fix.(*T).M" {
		t.Errorf("method node name = %q, want fix.(*T).M", nm.Name)
	}
	if ie := edges(ng, nm); len(ie) != 1 || ie[0].Kind != Interface {
		t.Errorf("g→(*T).M edges = %v, want one interface edge", ie)
	}
	if me := edges(nm, nf); len(me) != 1 || me[0].Kind != Static {
		t.Errorf("(*T).M→f edges = %v, want one static", me)
	}
	// In edges mirror Out edges.
	if len(nf.In) != 4 {
		t.Errorf("f has %d in-edges, want 4 (M static, g dynamic/go/defer)", len(nf.In))
	}
}

// TestPackageLevelIIFE: a package-level immediately-invoked function
// literal has no caller node; Build must not panic on it, and the
// literal must stay a conservative dynamic-call candidate.
func TestPackageLevelIIFE(t *testing.T) {
	g, _ := buildSingle(t, `package fix

var x = func() int { return 1 }()

var y = func() func() int {
	inner := func() int { return 2 }
	return inner
}()
`)
	var lits []*Node
	for _, n := range g.Nodes {
		if n.Lit != nil {
			lits = append(lits, n)
		}
	}
	if len(lits) != 3 {
		t.Fatalf("got %d literal nodes, want 3", len(lits))
	}
	for _, n := range lits {
		if !n.AddrTaken {
			t.Errorf("package-level literal %s must be address-taken (no caller node to edge from)", n.Name)
		}
		if len(n.In) != 0 {
			t.Errorf("package-level literal %s has %d in-edges, want 0", n.Name, len(n.In))
		}
	}
}

func TestBuildTestFileDetection(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix_test.go", "package fix\nfunc h() {}\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	pkg, err := (&types.Config{}).Check("fix", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(fset, []*Unit{{ImportPath: "fix", Files: []*ast.File{f}, Pkg: pkg, Info: info}})
	n := g.NodeOf(lookupFunc(t, pkg, "h"))
	if n == nil || !g.InTestFile(n) {
		t.Errorf("h must be a node in a test file; node=%v", n)
	}
}

func TestEdgeKindString(t *testing.T) {
	for kind, want := range map[EdgeKind]string{Static: "static", Dynamic: "dynamic", Interface: "interface"} {
		if kind.String() != want {
			t.Errorf("EdgeKind(%d).String() = %q, want %q", kind, kind.String(), want)
		}
	}
}
