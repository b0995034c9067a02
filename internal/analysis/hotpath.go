package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"squatphi/internal/analysis/callgraph"
)

// HotPath enforces the zero-allocations-per-record contract of the scan
// hot loop statically (BenchmarkMatchMiss and make bench-check gate it
// dynamically). It walks the whole-repo call graph from every
// //squat:hot root and checks every body it reaches, the roots' own
// included, so an allocating helper two frames below a hot root — or a
// lock, a log call, or I/O anywhere under it — is a finding even though
// the root's own body is clean. //squat:cold marks a deliberate boundary
// (hit-time, error-path or sampled code) where traversal stops.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "walk the call graph from every //squat:hot root and report, in " +
		"every reachable repo function: allocation patterns (string<->[]byte " +
		"conversions outside the map-index and comparison forms, fmt.*, " +
		"allocating strings helpers), sync lock acquisition below the root, " +
		"and I/O or logging calls; also report reachable functions carrying " +
		"neither //squat:hot nor //squat:cold, so the annotation set stays " +
		"honest. Traversal stops at //squat:cold boundaries and test files",
	NeedsCallGraph: true,
	Run:            runHotPath,
}

// hotAllocStrings lists strings-package helpers that always allocate
// their result. The hot path has append-style byte equivalents for each
// (internal/confusables.AppendSkeleton, squat's appendNormalized and
// splitETLDAt); reaching for the strings form re-introduces the per-record
// garbage the byte matcher exists to avoid.
var hotAllocStrings = map[string]bool{
	"Split": true, "SplitN": true, "SplitAfter": true, "Fields": true,
	"ToLower": true, "ToUpper": true, "Map": true, "Replace": true,
	"ReplaceAll": true, "Repeat": true, "Join": true,
}

// hotPathIOPkgs are packages whose calls have no business on a
// per-record scan path.
var hotPathIOPkgs = map[string]bool{
	"os": true, "net": true, "net/http": true, "log": true, "syscall": true,
}

// hotPathFinding is one finding attributed to the package that owns the
// offending function, so each per-package pass reports only its own.
type hotPathFinding struct {
	pkg *types.Package
	pos token.Pos
	msg string
}

func runHotPath(pass *Pass) error {
	for _, f := range hotPathClosure(pass.Graph) {
		if f.pkg == pass.Pkg {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// hotPathClosure computes (once per graph, memoized across the driver's
// per-package passes) the transitive closure of //squat:hot roots and
// every finding in it, in deterministic node order.
func hotPathClosure(g *callgraph.Graph) []hotPathFinding {
	if cached, ok := g.Memo["hotpath"]; ok {
		return cached.([]hotPathFinding)
	}
	// BFS from all roots at once, in node order; the first root to reach
	// a function becomes its reported representative, deterministically.
	rootOf := map[*callgraph.Node]*callgraph.Node{}
	var queue []*callgraph.Node
	for _, n := range g.Nodes {
		if n.Decl != nil && isHotMarked(n.Decl) && !g.InTestFile(n) {
			rootOf[n] = n
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			c := e.Callee
			if _, seen := rootOf[c]; seen {
				continue
			}
			if g.InTestFile(c) {
				continue
			}
			if c.Decl != nil && isColdMarked(c.Decl) {
				continue
			}
			rootOf[c] = rootOf[n]
			queue = append(queue, c)
		}
	}
	var out []hotPathFinding
	report := func(n *callgraph.Node, pos token.Pos, format string, args ...any) {
		out = append(out, hotPathFinding{pkg: n.Unit.Pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
	}
	for _, n := range g.Nodes {
		root, reached := rootOf[n]
		if !reached {
			continue
		}
		if n.Decl != nil && !isHotMarked(n.Decl) {
			report(n, n.Pos(), "%s is reachable from //squat:hot root %s but carries neither //squat:hot nor //squat:cold; annotate it so the hot-path contract stays explicit", n.Name, root.Name)
		}
		if n.Body() != nil {
			scanHotBody(n, root, report)
		}
	}
	g.Memo["hotpath"] = out
	return out
}

// scanHotBody pattern-scans one reachable function body. Nested function
// literals are separate graph nodes and are not descended into. The
// allocation patterns are checked in every reachable body; locks only
// below the root, where they are not held at the root.
func scanHotBody(n, root *callgraph.Node, report func(*callgraph.Node, token.Pos, string, ...any)) {
	info := n.Unit.Info
	isRoot := root == n
	where := n.Name + ", reachable from //squat:hot root " + root.Name
	if isRoot {
		where = "//squat:hot root " + n.Name
	}
	var stack []ast.Node
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		if x == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false // its own node; scanned when (and only if) reached
		}
		stack = append(stack, x)
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if conv, isConv := allocConversion(info, call); isConv {
			if !allocFreeContext(stack, call) {
				report(n, call.Pos(), "allocating conversion %s in %s; push it behind a //squat:cold boundary or use the byte helpers", conv, where)
			}
			return true
		}
		if pkgPath, selName, _, ok := qualifiedSel(info, call.Fun); ok {
			switch {
			case pkgPath == "fmt":
				report(n, call.Pos(), "fmt.%s in %s, allocates on every call; format off the hot path", selName, where)
				return true
			case pkgPath == "strings" && hotAllocStrings[selName]:
				report(n, call.Pos(), "strings.%s in %s, allocates its result; use the append-style byte helpers", selName, where)
				return true
			}
		}
		if isRoot {
			return true // the root's own locks are held at the root by definition
		}
		if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
			switch fn.Name() {
			case "Lock", "RLock":
				report(n, call.Pos(), "sync %s acquired in %s, reachable from //squat:hot root %s and not held at the root; per-record locking breaks the scan hot loop, move it behind a //squat:cold boundary", fn.Name(), n.Name, root.Name)
				return true
			}
		}
		if pkgPath, selName, _, ok := qualifiedSel(info, call.Fun); ok && hotPathIOPkgs[pkgPath] {
			report(n, call.Pos(), "%s.%s called in %s, reachable from //squat:hot root %s; I/O and logging do not belong on the per-record scan path, move them behind a //squat:cold boundary", pkgPath, selName, n.Name, root.Name)
		}
		return true
	})
}

// calleeFunc resolves a call's callee to its function object, nil for
// dynamic calls, builtins and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isHotMarked reports whether the function's doc comment carries the
// //squat:hot directive. Directives survive in Doc.List even though
// go/doc strips them from the rendered text.
func isHotMarked(fd *ast.FuncDecl) bool { return hasDirective(fd, "//squat:hot") }

// isColdMarked reports the //squat:cold directive: a deliberate hot-path
// boundary (hit-time, error-path or sampled code) where rare-path
// allocation is accepted and hotpath's transitive traversal stops.
func isColdMarked(fd *ast.FuncDecl) bool { return hasDirective(fd, "//squat:cold") }

func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive {
			return true
		}
	}
	return false
}

// allocConversion reports whether call is a string<->[]byte conversion,
// the two directions that copy their operand. Conversions of generic
// type-parameter operands are not resolved (their underlying type is the
// constraint interface); the dynamic gate catches what this misses.
func allocConversion(info *types.Info, call *ast.CallExpr) (string, bool) {
	if len(call.Args) != 1 {
		return "", false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", false
	}
	from := info.TypeOf(call.Args[0])
	if from == nil {
		return "", false
	}
	switch {
	case isString(tv.Type) && isByteSlice(from):
		return "string([]byte)", true
	case isByteSlice(tv.Type) && isString(from):
		return "[]byte(string)", true
	}
	return "", false
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// allocFreeContext reports whether the conversion at the top of stack
// sits in a position the compiler is guaranteed to compile without
// copying: a map index (m[string(b)]) or an operand of a string
// comparison (string(b) == s).
func allocFreeContext(stack []ast.Node, call *ast.CallExpr) bool {
	if len(stack) < 2 {
		return false
	}
	switch parent := stack[len(stack)-2].(type) {
	case *ast.IndexExpr:
		return parent.Index == call
	case *ast.BinaryExpr:
		switch parent.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return parent.X == call || parent.Y == call
		}
	}
	return false
}
