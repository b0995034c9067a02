package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrFlow guards the scan spine against silently swallowed errors: the
// paper-scale pipeline only counts because a failed shard read, cache
// write or response encode surfaces somewhere (a return, a degraded
// counter, a log) instead of vanishing. It is intraprocedural: the
// discard is visible at the call site.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc: "in internal/core, internal/deltascan, internal/serve and " +
		"internal/fsx, a call whose error result is discarded — as a bare " +
		"statement or assigned to _ — is a finding unless the callee is a " +
		"sanctioned sink (Close/Flush/Sync/Shutdown/Stop/Cancel teardown " +
		"idioms, never-failing bytes/strings/hash writers, fmt.Fprint* to " +
		"an in-process writer); test files are exempt",
	Run: runErrFlow,
}

func errFlowScope(importPath string) bool {
	return pathHasInternal(importPath, "core") ||
		pathHasInternal(importPath, "deltascan") ||
		pathHasInternal(importPath, "serve") ||
		pathHasInternal(importPath, "fsx")
}

// errFlowSinkNames are teardown-idiom method names whose errors are
// conventionally unreportable at the call site (defer f.Close() and
// friends): the resource is going away either way.
var errFlowSinkNames = map[string]bool{
	"Close": true, "Flush": true, "Sync": true, "Shutdown": true,
	"Stop": true, "Cancel": true,
}

// errFlowSinkPkgs hold callees documented never to fail (bytes.Buffer,
// strings.Builder, hash writers). fmt is handled separately: only its
// Fprint family is sanctioned, whose sole error is the destination
// writer's — in-process writers here. Sscanf/Scan errors carry parse
// results and must be handled.
var errFlowSinkPkgs = map[string]bool{
	"bytes": true, "strings": true, "hash": true,
}

func runErrFlow(pass *Pass) error {
	if !errFlowScope(pass.ImportPath) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					checkDiscardedCall(pass, call, false)
				}
			case *ast.DeferStmt:
				checkDiscardedCall(pass, s.Call, true)
			case *ast.AssignStmt:
				checkBlankAssign(pass, s)
			}
			return true
		})
	}
	return nil
}

// checkDiscardedCall reports a bare or deferred call that returns an
// error nobody receives.
func checkDiscardedCall(pass *Pass, call *ast.CallExpr, deferred bool) {
	results := callResults(pass.Info, call)
	hasErr := false
	for _, t := range results {
		if isErrorType(t) {
			hasErr = true
		}
	}
	if !hasErr || sanctionedErrSink(pass.Info, call) {
		return
	}
	how := "statement discards"
	if deferred {
		how = "deferred call discards"
	}
	pass.Reportf(call.Pos(), "%s the error from %s; handle it, return it, or route it through a sanctioned sink (core.degraded counter, log, explicit _ = with justification upstream)", how, calleeDisplay(pass.Info, call))
}

// checkBlankAssign reports error results assigned to _.
func checkBlankAssign(pass *Pass, s *ast.AssignStmt) {
	check := func(lhs ast.Expr, t types.Type, call *ast.CallExpr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || !isErrorType(t) || sanctionedErrSink(pass.Info, call) {
			return
		}
		pass.Reportf(id.Pos(), "error result of %s assigned to _; handle it, return it, or route it through a sanctioned sink", calleeDisplay(pass.Info, call))
	}
	if len(s.Rhs) == 1 {
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		results := callResults(pass.Info, call)
		if len(results) != len(s.Lhs) {
			return
		}
		for i, lhs := range s.Lhs {
			check(lhs, results[i], call)
		}
		return
	}
	for i, rhs := range s.Rhs {
		if i >= len(s.Lhs) {
			break
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			if results := callResults(pass.Info, call); len(results) == 1 {
				check(s.Lhs[i], results[0], call)
			}
		}
	}
}

// callResults returns the call's result types (nil for conversions).
func callResults(info *types.Info, call *ast.CallExpr) []types.Type {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil
	}
	t := info.TypeOf(call)
	switch t := t.(type) {
	case nil:
		return nil
	case *types.Tuple:
		out := make([]types.Type, t.Len())
		for i := 0; i < t.Len(); i++ {
			out[i] = t.At(i).Type()
		}
		return out
	default:
		return []types.Type{t}
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return t != nil && types.Identical(t, errorType) }

// sanctionedErrSink reports callees whose discarded error is accepted by
// convention.
func sanctionedErrSink(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if errFlowSinkNames[fn.Name()] {
		return true
	}
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		return strings.HasPrefix(fn.Name(), "Fprint")
	}
	return errFlowSinkPkgs[fn.Pkg().Path()]
}

// calleeDisplay renders the callee for messages: pkg.Fn, Type.Method, or
// the raw expression form when unresolvable.
func calleeDisplay(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "the call"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// namedOf unwraps pointers to the named type, nil for unnamed types.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
