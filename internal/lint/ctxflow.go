package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mloc/internal/lint/flow"
)

// CtxFlow enforces the cancellation-propagation contract on functions
// that hold a context.Context (their own parameter, or one captured
// from the enclosing function):
//
//   - no call may override the held context with context.Background()
//     or context.TODO() — detaching is an explicit, ignore-with-reason
//     decision, not a default;
//   - a call to a callee with a context-aware sibling (Query next to
//     QueryContext, Submit next to SubmitContext) must use the sibling
//     and forward the held context;
//   - a loop whose body performs simulated I/O (calls into
//     internal/pfs) must poll cancellation each iteration: check
//     ctx.Err(), receive from ctx.Done(), or forward the context to a
//     callee that does.
//
// Functions without a context in scope are exempt — that is what makes
// the Background()-filling convenience wrappers (Query over
// QueryContext) legal.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "held contexts must be forwarded: no Background() overrides, use Context-variant callees, poll cancellation in I/O loops",
	Run:  runCtxFlow,
}

func runCtxFlow(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxflowBody(p, fd.Body, ctxParams(p.Pkg.Info, fd.Type), fd.Name.Name)
		}
	}
}

// ctxParams collects the objects of a function type's context.Context
// parameters.
func ctxParams(info *types.Info, ft *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj != nil && isCtxType(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

// ctxflowBody walks one function body. Function literals inherit the
// enclosing context objects (a closure capturing ctx is still bound by
// the contract) unless they declare their own.
func ctxflowBody(p *Pass, body *ast.BlockStmt, ctxObjs map[types.Object]bool, fname string) {
	info := p.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := ctxParams(info, n.Type)
			if len(inner) == 0 {
				inner = ctxObjs
			}
			ctxflowBody(p, n.Body, inner, fname)
			return false
		case *ast.CallExpr:
			if len(ctxObjs) > 0 {
				checkCtxCall(p, n, fname)
			}
		case *ast.ForStmt:
			if len(ctxObjs) > 0 {
				checkCtxLoop(p, n.Pos(), n.Body, ctxObjs)
			}
		case *ast.RangeStmt:
			if len(ctxObjs) > 0 {
				checkCtxLoop(p, n.Pos(), n.Body, ctxObjs)
			}
		}
		return true
	})
}

// checkCtxCall applies the forwarding rules to one call made while a
// context is held.
func checkCtxCall(p *Pass, call *ast.CallExpr, fname string) {
	info := p.Pkg.Info
	for _, arg := range call.Args {
		if isBackgroundCall(info, arg) {
			p.Reportf(arg.Pos(), "%s holds a context but passes a fresh one here; forward the held ctx (or suppress with a reason to detach)", fname)
		}
	}
	callee := flow.CalleeOf(info, call)
	if callee == nil || signatureHasCtx(callee) {
		return
	}
	if sibling := ctxSibling(callee); sibling != nil {
		p.Reportf(call.Pos(), "%s holds a context but calls %s, which has the context-aware variant %s", fname, callee.Name(), sibling.Name())
	}
}

// isBackgroundCall matches context.Background() / context.TODO().
func isBackgroundCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := flow.CalleeOf(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// signatureHasCtx reports whether fn takes a context.Context parameter.
func signatureHasCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// ctxSibling finds fn's context-aware variant: a function or method
// named fn.Name()+"Context", in the same package (or on the same
// receiver type), that takes a context.Context.
func ctxSibling(fn *types.Func) *types.Func {
	if fn.Pkg() == nil {
		return nil
	}
	want := fn.Name() + "Context"
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		obj, _, _ := types.LookupFieldOrMethod(sig.Recv().Type(), true, fn.Pkg(), want)
		if m, ok := obj.(*types.Func); ok && signatureHasCtx(m) {
			return m
		}
		return nil
	}
	if m, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok && signatureHasCtx(m) {
		return m
	}
	return nil
}

// checkCtxLoop flags loops that perform simulated I/O without polling
// the held context each iteration.
func checkCtxLoop(p *Pass, pos token.Pos, body *ast.BlockStmt, ctxObjs map[types.Object]bool) {
	info := p.Pkg.Info
	doesIO, polls := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := flow.CalleeOf(info, n); callee != nil && callee.Pkg() != nil &&
				pathHasSuffix(callee.Pkg().Path(), "internal/pfs") {
				doesIO = true
			}
			// Forwarding the context into the loop body counts as a
			// poll: the callee observes cancellation.
			for _, arg := range n.Args {
				if isCtxType(info.TypeOf(arg)) {
					polls = true
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Err" || sel.Sel.Name == "Done" || sel.Sel.Name == "Deadline") {
				if isCtxType(info.TypeOf(sel.X)) {
					polls = true
				}
			}
		}
		return true
	})
	if doesIO && !polls {
		p.Reportf(pos, "loop performs simulated I/O without polling cancellation; check ctx.Err() or forward ctx into the loop body")
	}
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	return isNamedType(t, "context", "Context")
}
