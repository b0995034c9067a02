// Package callgraph builds a conservative whole-repo call graph over the
// packages squatvet loads, using only go/ast + go/types (the analysis
// engine's no-x/tools constraint).
//
// The graph is deliberately an over-approximation: a static call edge is
// added where the callee resolves to a declared function or method; a
// call through an interface value adds edges to every loaded concrete
// method with the same name and an identical signature; a call through a
// function value adds edges to every loaded function whose address is
// taken and whose signature is identical. Function literals get their own
// nodes (an immediately-invoked literal is a static callee of its
// enclosing function; any other literal is address-taken). Calls into
// packages outside the analyzed set additionally link the caller to any
// function values passed as arguments, so callback idioms like
// sort.Slice(x, less) keep the callback reachable.
//
// Over-approximation is the right polarity for the analyzers built on
// top: hotpath must prove the absence of allocation below //squat:hot
// roots, so a spurious edge can only produce a finding a human reviews,
// never hide one.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unit is one type-checked package presented to Build. It mirrors the
// driver's Package without importing it (analysis imports callgraph, not
// the other way around).
type Unit struct {
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Files are the parsed files type-checked together.
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info
}

// EdgeKind classifies how a call site was resolved to its callee.
type EdgeKind int

const (
	// Static is a direct call to a declared function, method, or an
	// immediately-invoked function literal.
	Static EdgeKind = iota
	// Dynamic is a call through a function value, resolved conservatively
	// by signature identity against every address-taken function.
	Dynamic
	// Interface is a call through an interface method, resolved
	// conservatively to every concrete method with the same name and
	// signature.
	Interface
)

func (k EdgeKind) String() string {
	switch k {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Interface:
		return "interface"
	}
	return "unknown"
}

// Edge is one resolved call: Caller invokes Callee at Site.
type Edge struct {
	Caller *Node
	Callee *Node
	// Site is the call expression, nil for synthetic edges (a function
	// value passed into an un-analyzed callee).
	Site *ast.CallExpr
	Kind EdgeKind
	// Go and Defer record that the call site was a go or defer statement.
	Go    bool
	Defer bool
}

// Node is one function in the graph: a declared function or method
// (Obj+Decl set) or a function literal (Lit set).
type Node struct {
	// Obj is the declared function's object; nil for literals.
	Obj *types.Func
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Unit is the package the function's body lives in.
	Unit *Unit
	// Name is a stable human-readable identifier: pkg.Fn,
	// pkg.(*T).Method, or pkg.Enclosing.func for literals.
	Name string
	// AddrTaken reports that the function's value escapes a direct call
	// position, making it a candidate callee for every dynamic call of
	// identical signature.
	AddrTaken bool

	Out []*Edge
	In  []*Edge
}

// Body returns the function body, nil for bodyless declarations.
func (n *Node) Body() *ast.BlockStmt {
	if n.Lit != nil {
		return n.Lit.Body
	}
	if n.Decl != nil {
		return n.Decl.Body
	}
	return nil
}

// Pos returns the declaration or literal position.
func (n *Node) Pos() token.Pos {
	if n.Lit != nil {
		return n.Lit.Pos()
	}
	if n.Decl != nil {
		return n.Decl.Name.Pos()
	}
	return token.NoPos
}

// Graph is the whole-load call graph. Nodes is in deterministic order:
// declared functions in unit/file/declaration order, then literals in
// walk order, so traversals over Nodes are reproducible run to run.
type Graph struct {
	Fset  *token.FileSet
	Nodes []*Node
	// Memo lets analyzers cache whole-graph computations (e.g. the hot
	// transitive closure) across the per-package passes of one run.
	Memo map[string]any

	byObj map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
}

// NodeOf returns the node for a declared function, nil when the function
// is outside the analyzed set.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byObj[fn] }

// InTestFile reports whether the node's body lives in a _test.go file.
func (g *Graph) InTestFile(n *Node) bool {
	return strings.HasSuffix(g.Fset.Position(n.Pos()).Filename, "_test.go")
}

// callCtx records how a call site was issued.
type callCtx struct {
	caller *Node
	site   *ast.CallExpr
	goC    bool
	defC   bool
}

// pendingCall is a dynamic or interface call awaiting conservative
// resolution after every node is known.
type pendingCall struct {
	ctx  callCtx
	kind EdgeKind
	// name is the method name for Interface calls.
	name string
	sig  *types.Signature
}

// pendingRef is a function value referenced by a pass-3 resolution step:
// either an argument handed to an un-analyzed callee, or a direct edge
// target discovered before its node existed.
type pendingRef struct {
	ctx callCtx
	lit *ast.FuncLit
	obj *types.Func
}

type builder struct {
	g            *Graph
	pending      []pendingCall
	pendingRefs  []pendingRef
	calleeIdents map[*ast.Ident]bool
	goCalls      map[*ast.CallExpr]bool
	deferCalls   map[*ast.CallExpr]bool
	invokedLits  map[*ast.FuncLit]callCtx
}

// Build constructs the graph over units. fset must be the file set the
// units were parsed with.
func Build(fset *token.FileSet, units []*Unit) *Graph {
	g := &Graph{
		Fset:  fset,
		Memo:  map[string]any{},
		byObj: map[*types.Func]*Node{},
		byLit: map[*ast.FuncLit]*Node{},
	}
	b := &builder{
		g:            g,
		calleeIdents: map[*ast.Ident]bool{},
		goCalls:      map[*ast.CallExpr]bool{},
		deferCalls:   map[*ast.CallExpr]bool{},
		invokedLits:  map[*ast.FuncLit]callCtx{},
	}
	// Pass 1: a node per declared function, in deterministic order.
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := u.Info.Defs[fd.Name].(*types.Func)
				if obj == nil || g.byObj[obj] != nil {
					continue
				}
				n := &Node{Obj: obj, Decl: fd, Unit: u, Name: declName(u, fd)}
				g.Nodes = append(g.Nodes, n)
				g.byObj[obj] = n
			}
		}
	}
	// Pass 2: walk bodies; static edges, literal nodes, pending dynamic
	// and interface calls, direct-callee ident bookkeeping.
	for _, u := range units {
		for _, f := range u.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fd.Body == nil {
						continue
					}
					obj, _ := u.Info.Defs[fd.Name].(*types.Func)
					if root := g.byObj[obj]; root != nil {
						b.walk(u, root, fd.Body)
					}
					continue
				}
				// Package-level var initializers may hold literals and calls;
				// walk them with no caller node (init-time calls carry no
				// hot-path or lifecycle obligations, but the literals must
				// exist as address-taken candidates).
				b.walk(u, nil, d)
			}
		}
	}
	// Pass 2.5: every remaining use of a function identifier outside a
	// direct call position takes its address.
	for _, u := range units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || b.calleeIdents[id] {
					return true
				}
				if fn, ok := u.Info.Uses[id].(*types.Func); ok {
					if node := g.byObj[fn]; node != nil {
						node.AddrTaken = true
					}
				}
				return true
			})
		}
	}
	// Pass 3: resolve deferred direct references, then conservative
	// dynamic and interface calls against the now-complete node set.
	for _, ref := range b.pendingRefs {
		var target *Node
		if ref.lit != nil {
			target = g.byLit[ref.lit]
		} else if ref.obj != nil {
			target = g.byObj[ref.obj]
		}
		if target != nil && ref.ctx.caller != nil {
			addEdge(ref.ctx, target, Dynamic)
		}
	}
	var taken []*Node
	for _, n := range g.Nodes {
		if n.AddrTaken && nodeSig(n) != nil {
			taken = append(taken, n)
		}
	}
	for _, p := range b.pending {
		if p.ctx.caller == nil || p.sig == nil {
			continue
		}
		switch p.kind {
		case Dynamic:
			for _, cand := range taken {
				if types.Identical(nodeSig(cand), p.sig) {
					addEdge(p.ctx, cand, Dynamic)
				}
			}
		case Interface:
			for _, cand := range g.Nodes {
				sig := nodeSig(cand)
				if sig == nil || sig.Recv() == nil || types.IsInterface(sig.Recv().Type()) {
					continue
				}
				if cand.Obj != nil && cand.Obj.Name() == p.name && types.Identical(sig, p.sig) {
					addEdge(p.ctx, cand, Interface)
				}
			}
		}
	}
	return g
}

// walk visits one function body (or package-level declaration), creating
// literal nodes and classifying every call site.
func (b *builder) walk(u *Unit, root *Node, body ast.Node) {
	cur := []*Node{root}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := top.(*ast.FuncLit); ok {
				cur = cur[:len(cur)-1]
			}
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.GoStmt:
			b.goCalls[x.Call] = true
		case *ast.DeferStmt:
			b.deferCalls[x.Call] = true
		case *ast.FuncLit:
			ln := b.newLitNode(u, cur[len(cur)-1], x)
			// A package-level IIFE (`var x = func() ... ()`) is invoked with
			// no caller node; mark it address-taken so it stays a
			// conservative dynamic-call candidate instead of adding an edge
			// from a nil caller.
			if ctx, ok := b.invokedLits[x]; ok && ctx.caller != nil {
				addEdge(ctx, ln, Static)
			} else {
				ln.AddrTaken = true
			}
			cur = append(cur, ln)
		case *ast.CallExpr:
			b.call(u, cur[len(cur)-1], x)
		}
		return true
	})
}

func (b *builder) newLitNode(u *Unit, enclosing *Node, lit *ast.FuncLit) *Node {
	name := u.Pkg.Name() + ".func"
	if enclosing != nil {
		name = enclosing.Name + ".func"
	}
	n := &Node{Lit: lit, Unit: u, Name: name}
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.byLit[lit] = n
	return n
}

// call classifies one call site under caller cur (nil at package level).
func (b *builder) call(u *Unit, cur *Node, call *ast.CallExpr) {
	ctx := callCtx{caller: cur, site: call, goC: b.goCalls[call], defC: b.deferCalls[call]}
	if tv, ok := u.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X) // generic instantiation f[T](...)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	switch f := fun.(type) {
	case *ast.FuncLit:
		// The literal's node is created when the walk descends into it;
		// remember the invocation so it becomes a static callee rather
		// than an address-taken value.
		b.invokedLits[f] = ctx
	case *ast.Ident:
		switch obj := u.Info.Uses[f].(type) {
		case *types.Func:
			b.calleeIdents[f] = true
			b.staticEdge(u, ctx, obj)
		case *types.Builtin, *types.TypeName, *types.Nil, nil:
			// len/append/..., conversions through local type names, nil.
		default:
			b.dynamic(u, ctx, call)
		}
	case *ast.SelectorExpr:
		if seln, ok := u.Info.Selections[f]; ok {
			switch seln.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn, _ := seln.Obj().(*types.Func)
				if fn == nil {
					return
				}
				b.calleeIdents[f.Sel] = true
				if types.IsInterface(seln.Recv()) {
					sig, _ := fn.Type().(*types.Signature)
					b.pending = append(b.pending, pendingCall{ctx: ctx, kind: Interface, name: fn.Name(), sig: sig})
					return
				}
				b.staticEdge(u, ctx, fn)
			case types.FieldVal:
				b.dynamic(u, ctx, call)
			}
			return
		}
		// Package-qualified pkg.Fn or pkg.Var.
		switch obj := u.Info.Uses[f.Sel].(type) {
		case *types.Func:
			b.calleeIdents[f.Sel] = true
			b.staticEdge(u, ctx, obj)
		case *types.Var:
			b.dynamic(u, ctx, call)
		}
	default:
		b.dynamic(u, ctx, call)
	}
}

// staticEdge links ctx to fn's node. When fn lives outside the analyzed
// set the call is treated as a callback boundary: any function value
// among the arguments gains a conservative dynamic edge from the caller.
func (b *builder) staticEdge(u *Unit, ctx callCtx, fn *types.Func) {
	if node := b.g.byObj[fn]; node != nil {
		if ctx.caller != nil {
			addEdge(ctx, node, Static)
		}
		return
	}
	if ctx.caller == nil || ctx.site == nil {
		return
	}
	for _, arg := range ctx.site.Args {
		arg = ast.Unparen(arg)
		if lit, ok := arg.(*ast.FuncLit); ok {
			b.pendingRefs = append(b.pendingRefs, pendingRef{ctx: ctx, lit: lit})
			continue
		}
		var obj types.Object
		switch a := arg.(type) {
		case *ast.Ident:
			obj = u.Info.Uses[a]
		case *ast.SelectorExpr:
			obj = u.Info.Uses[a.Sel]
		}
		if afn, ok := obj.(*types.Func); ok {
			b.pendingRefs = append(b.pendingRefs, pendingRef{ctx: ctx, obj: afn})
			continue
		}
		// A func-typed variable handed to an un-analyzed callee: treat as
		// a dynamic call of that signature.
		if t := u.Info.TypeOf(arg); t != nil {
			if sig, ok := t.Underlying().(*types.Signature); ok {
				b.pending = append(b.pending, pendingCall{ctx: ctx, kind: Dynamic, sig: sig})
			}
		}
	}
}

// dynamic records a call through a function value for pass-3 resolution.
func (b *builder) dynamic(u *Unit, ctx callCtx, call *ast.CallExpr) {
	if ctx.caller == nil {
		return
	}
	t := u.Info.TypeOf(call.Fun)
	if t == nil {
		return
	}
	if sig, ok := t.Underlying().(*types.Signature); ok {
		b.pending = append(b.pending, pendingCall{ctx: ctx, kind: Dynamic, sig: sig})
	}
}

func addEdge(ctx callCtx, callee *Node, kind EdgeKind) {
	e := &Edge{Caller: ctx.caller, Callee: callee, Site: ctx.site, Kind: kind, Go: ctx.goC, Defer: ctx.defC}
	ctx.caller.Out = append(ctx.caller.Out, e)
	callee.In = append(callee.In, e)
}

// nodeSig returns the node's signature for identity comparison, nil when
// the node is generic (type-parameterized signatures are never identical
// across instantiations, so they are excluded from conservative
// matching rather than silently mismatched).
func nodeSig(n *Node) *types.Signature {
	var sig *types.Signature
	if n.Lit != nil {
		sig, _ = n.Unit.Info.TypeOf(n.Lit).(*types.Signature)
	} else if n.Obj != nil {
		sig, _ = n.Obj.Type().(*types.Signature)
	}
	if sig != nil && (sig.TypeParams().Len() > 0 || sig.RecvTypeParams().Len() > 0) {
		return nil
	}
	return sig
}

// declName renders pkg.Fn, pkg.T.Method or pkg.(*T).Method.
func declName(u *Unit, fd *ast.FuncDecl) string {
	pkg := u.Pkg.Name()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	return pkg + "." + recvString(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

func recvString(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return "(*" + recvBase(t.X) + ")"
	default:
		return recvBase(e)
	}
}

// recvBase names the receiver's base type, dropping type parameters.
func recvBase(e ast.Expr) string {
	switch t := ast.Unparen(e).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr:
		return recvBase(t.X)
	case *ast.IndexListExpr:
		return recvBase(t.X)
	}
	return "?"
}
