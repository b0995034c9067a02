package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LifecycleLeak guards the serving layer's drain guarantee: squatd's
// graceful shutdown (listener drain → delta-state spill → metrics flush)
// only works if every goroutine spawned in serving code is join-able.
// A goroutine nobody can wait for keeps working through shutdown and
// races the state spill — exactly the class of bug PR 8's
// serving-lifecycle fixes were about.
var LifecycleLeak = &Analyzer{
	Name: "lifecycleleak",
	Doc: "every go statement in internal/serve, internal/obs and cmd/* " +
		"must start a join-able goroutine: its body signals a " +
		"sync.WaitGroup, blocks on <-ctx.Done(), or ranges over a " +
		"channel; naked goroutines in serving code outlive shutdown " +
		"and race the state spill. Named callees are resolved through " +
		"the call graph so the rule sees their bodies across packages",
	NeedsCallGraph: true,
	Run:            runLifecycleLeak,
}

func lifecycleScope(importPath string) bool {
	return pathHasInternal(importPath, "serve") ||
		pathHasInternal(importPath, "obs") ||
		pathHasSegment(importPath, "cmd")
}

func runLifecycleLeak(pass *Pass) error {
	if !lifecycleScope(pass.ImportPath) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, g)
			return true
		})
	}
	return nil
}

// checkGoStmt resolves the spawned function's body and reports the spawn
// site when no join construct is found in it.
func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	fun := ast.Unparen(g.Call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		if !joinable(lit.Body, pass.Info) {
			pass.Reportf(g.Pos(), "goroutine is not join-able (no sync.WaitGroup signal, <-ctx.Done() wait or channel range in its body); tie it to the component lifecycle so shutdown can drain it")
		}
		return
	}
	fn := calleeFunc(pass.Info, g.Call)
	if fn == nil {
		pass.Reportf(g.Pos(), "goroutine calls through a function value, which cannot be proven join-able; spawn a named worker tied to the component lifecycle so shutdown can drain it")
		return
	}
	node := pass.Graph.NodeOf(fn)
	if node == nil || node.Decl == nil || node.Decl.Body == nil {
		pass.Reportf(g.Pos(), "goroutine body %s is outside the analyzed packages; wrap the spawn in a join-able worker so shutdown can drain it", fn.Name())
		return
	}
	if !joinable(node.Decl.Body, node.Unit.Info) {
		pass.Reportf(g.Pos(), "goroutine %s is not join-able (no sync.WaitGroup signal, <-ctx.Done() wait or channel range in its body); tie it to the component lifecycle so shutdown can drain it", fn.Name())
	}
}

// joinable reports whether body contains one of the sanctioned join
// constructs. info must be the types.Info of the package the body was
// type-checked in (for cross-package named callees, the callee's).
func joinable(body *ast.BlockStmt, info *types.Info) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(info, x); fn != nil {
				if fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Done" {
					found = true // wg.Done() — the spawner can Wait
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
					if fn := calleeFunc(info, call); fn != nil && fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context" {
						found = true // <-ctx.Done(): exits with cancellation
					}
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true // drains until the spawner closes the channel
				}
			}
		}
		return !found
	})
	return found
}
