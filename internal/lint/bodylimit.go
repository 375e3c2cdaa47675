package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"mloc/internal/lint/flow"
)

// BodyLimit reports network body reads that are not length-bounded. A
// peer — a data node answering the router, a server answering mlocctl,
// a client posting a query — controls how many bytes Body yields, so
// every json.NewDecoder(body), io.ReadAll(body), io.Copy(_, body), or
// helper call receiving a body must wrap it in io.LimitReader or
// http.MaxBytesReader first (the repository convention is 64 MiB for
// result payloads and 1 MiB for error envelopes and metadata — see
// internal/cluster/router/scatter.go).
//
// Two shapes count as bounded: wrapping inline at the read, and a
// reassignment `r.Body = http.MaxBytesReader(w, r.Body, n)` that has
// run on every path to the read (flow's must-happen analysis).
// Close() is exempt — closing an unread body is how bodies are
// discarded.
var BodyLimit = &Analyzer{
	Name: "bodylimit",
	Doc:  "network body reads must be bounded by io.LimitReader or http.MaxBytesReader",
	Run:  runBodyLimit,
}

func runBodyLimit(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBodyLimit(pass, fd)
		}
	}
}

func checkBodyLimit(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	aliases := collectBodyAliases(info, fd.Body)

	// rebound reports whether a wrap `x.Body = http.MaxBytesReader(...)`
	// / `io.LimitReader(...)` of base x has run on every path to the
	// read: the must-happen analysis, with one event per rebound base.
	var wraps *flow.MustFacts[types.Object]
	rebound := func(base types.Object, read ast.Node) bool {
		if base == nil {
			return false
		}
		if wraps == nil {
			wraps = flow.SolveMust(flow.BuildCFG(fd.Body), func(n ast.Node) []types.Object {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return nil
				}
				call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
				if !ok || !isBoundingCall(info, call) {
					return nil
				}
				if wrapped, isBody := bodyExprBase(info, as.Lhs[0], aliases); isBody && wrapped != nil {
					return []types.Object{wrapped}
				}
				return nil
			})
		}
		return wraps.OnEveryPathTo(read, base)
	}

	// Reads: a body expression passed as an argument to any call other
	// than the bounding wrappers themselves.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isBoundingCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			base, isBody := bodyExprBase(info, arg, aliases)
			if !isBody {
				continue
			}
			if rebound(base, call) {
				continue
			}
			pass.Reportf(arg.Pos(), "unbounded read of %s; wrap it in io.LimitReader or http.MaxBytesReader", renderExpr(pass.Pkg, arg))
		}
		return true
	})
}

// collectBodyAliases finds `body := resp.Body` bindings so the alias
// identifier counts as a body expression at its uses.
func collectBodyAliases(info *types.Info, body *ast.BlockStmt) map[types.Object]types.Object {
	aliases := make(map[types.Object]types.Object)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			base, isBody := bodyExprBase(info, rhs, nil)
			if !isBody {
				continue
			}
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			if obj := info.Defs[id]; obj != nil {
				aliases[obj] = base
			}
		}
		return true
	})
	return aliases
}

// bodyExprBase reports whether e reads an http body — a `x.Body`
// selector on an http.Request/Response, or an alias bound from one —
// and returns the base object (the request/response variable) when it
// is a simple identifier.
func bodyExprBase(info *types.Info, e ast.Expr, aliases map[types.Object]types.Object) (types.Object, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if e.Sel.Name != "Body" {
			return nil, false
		}
		t := info.TypeOf(e.X)
		if !isNamedType(t, "net/http", "Request") && !isNamedType(t, "net/http", "Response") {
			return nil, false
		}
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			return info.Uses[id], true
		}
		return nil, true
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			if base, ok := aliases[obj]; ok {
				return base, true
			}
		}
	}
	return nil, false
}

// isBoundingCall reports whether call is io.LimitReader or
// http.MaxBytesReader — the two sanctioned bounding wrappers.
func isBoundingCall(info *types.Info, call *ast.CallExpr) bool {
	callee := flow.CalleeOf(info, call)
	if callee == nil || callee.Pkg() == nil {
		return false
	}
	switch callee.Pkg().Path() + "." + callee.Name() {
	case "io.LimitReader", "net/http.MaxBytesReader":
		return true
	}
	return false
}

// renderExpr pretty-prints a short expression for diagnostics.
func renderExpr(pkg *Package, e ast.Expr) string {
	var sb strings.Builder
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			sb.WriteString(id.Name)
			sb.WriteString(".")
			sb.WriteString(e.Sel.Name)
			return sb.String()
		}
		return "…." + e.Sel.Name
	}
	return "body"
}
