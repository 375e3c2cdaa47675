package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mloc/internal/lint/flow"
)

// GoLeak flags go statements that spawn goroutines with no bounded
// exit: on every path from the goroutine body's entry to its exit
// there must be a joining event — a sync.WaitGroup Done/Wait, a close,
// a channel send or receive (a ctx.Done() select counts), a range over
// a channel — or a call to a function that provides one. A goroutine
// with none of these is fire-and-forget: nothing can wait for it, and
// under load it accumulates (the leak class the build pool was
// designed around).
//
// Goroutines whose callee cannot be resolved statically (function
// values, interface methods) are skipped rather than guessed at.
var GoLeak = &Analyzer{
	Name:       "goleak",
	Doc:        "go statements need a bounded exit on every path (WaitGroup join, channel op, close, or ctx.Done)",
	RunProgram: runGoLeak,
}

func runGoLeak(p *ProgramPass) {
	bounds := flow.NewEveryPath(p.Flow, isBoundingNode)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			info := pkg.Info
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body, binfo := spawnedBody(p.Flow, info, gs)
				if body == nil {
					return true
				}
				if !bounds.Solve(binfo, body).OnEveryPath(flow.Done{}) {
					p.Reportf(gs.Pos(), "goroutine has no bounded exit on every path (no WaitGroup join, channel operation, close, or ctx.Done receive)")
				}
				return true
			})
		}
	}
}

// spawnedBody resolves the function body a go statement runs: an
// inline literal, or the declaration of a statically resolved callee.
func spawnedBody(prog *flow.Program, info *types.Info, gs *ast.GoStmt) (*ast.BlockStmt, *types.Info) {
	if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return fl.Body, info
	}
	callee := flow.CalleeOf(info, gs.Call)
	if callee == nil {
		return nil, nil
	}
	fi := prog.Funcs[callee]
	if fi == nil {
		return nil, nil
	}
	return fi.Decl.Body, fi.Pkg.Info
}

// isBoundingNode recognizes the constructs that bound a goroutine's
// lifetime by themselves; flow.EveryPath adds calls to functions whose
// own body provides one on every path (the worker that does
// `defer wg.Done()`).
func isBoundingNode(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SendStmt:
		return true
	case *ast.UnaryExpr:
		// Any receive blocks on a peer: <-done, <-ctx.Done(), ...
		return n.Op == token.ARROW
	case *ast.RangeStmt:
		// Ranging a channel terminates when the sender closes it.
		_, isChan := info.TypeOf(n.X).Underlying().(*types.Chan)
		return isChan
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return true
			}
		}
		return isWaitGroupJoin(info, n)
	}
	return false
}

// isWaitGroupJoin matches wg.Done() and wg.Wait() on sync.WaitGroup.
func isWaitGroupJoin(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Wait") {
		return false
	}
	return isNamedType(info.TypeOf(sel.X), "sync", "WaitGroup")
}
