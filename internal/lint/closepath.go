package lint

import (
	"go/ast"
	"go/types"

	"mloc/internal/lint/flow"
)

// ClosePath verifies that acquired values are released on every path
// out of the acquiring function — error returns and panics included
// (a defer satisfies the requirement everywhere downstream of its
// registration). Three acquisition shapes are tracked:
//
//   - sync.Pool: a .Get() must be matched by .Put on the same pool on
//     every path, or the pooled object is silently dropped and the
//     pool refills from the heap;
//   - time.NewTimer / time.NewTicker assigned to a variable must be
//     .Stop()ped, or the runtime timer leaks;
//   - GetX/PutX constructor pairs (a package-level GetX whose package
//     also exports PutX) must be balanced by a PutX call.
//
// Acquisitions inside a return statement are exempt: ownership
// transfers to the caller (that is how GetX wrappers themselves are
// implemented).
var ClosePath = &Analyzer{
	Name: "closepath",
	Doc:  "pooled and constructed values need a release (Put/Stop) on every path, error returns and panics included",
	Run:  runClosePath,
}

// closeEvent is one kind of release of one object: a Put on that pool,
// a Stop on that timer variable, a call of that PutX function.
type closeEvent struct {
	kind string
	obj  types.Object
}

// closeAcq is one tracked acquisition site and the event that releases
// it.
type closeAcq struct {
	node  ast.Node
	event closeEvent
	what  string
}

func runClosePath(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					closePathBody(p, n.Body)
				}
				return false
			case *ast.FuncLit:
				closePathBody(p, n.Body)
				return false
			}
			return true
		})
	}
}

// closePathBody analyzes one function body. Nested literals are walked
// by the caller with their own graphs.
func closePathBody(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.Info
	acqs := collectAcquisitions(info, body)
	// Recurse into nested literals regardless of whether this body
	// acquires anything.
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				closePathBody(p, fl.Body)
				return false
			}
			return true
		})
	}
	if len(acqs) == 0 {
		return
	}
	facts := flow.SolveMust(flow.BuildCFG(body), func(n ast.Node) []closeEvent {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return nil
		}
		return releaseEvents(info, call)
	})
	for _, a := range acqs {
		if !facts.OnEveryPathFrom(a.node, a.event) {
			p.Reportf(a.node.Pos(), "%s is not released on every path; add the release (or defer it) on error paths too", a.what)
		}
	}
}

// collectAcquisitions finds the tracked acquisition sites in body,
// skipping nested function literals and return statements (ownership
// escapes to the caller there).
func collectAcquisitions(info *types.Info, body *ast.BlockStmt) []closeAcq {
	var acqs []closeAcq
	returnDepth := 0
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				returnDepth++
				for _, r := range n.Results {
					walk(r)
				}
				returnDepth--
				return false
			case *ast.AssignStmt:
				// Timer/ticker acquisitions need the assigned variable
				// to know what .Stop() must be called on.
				if returnDepth == 0 && len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if kind := timerCtor(info, rhs); kind != "" {
							if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
								if obj := info.ObjectOf(id); obj != nil {
									acqs = append(acqs, closeAcq{
										node:  rhs,
										event: closeEvent{"stop", obj},
										what:  kind + " " + id.Name,
									})
								}
							}
						}
					}
				}
			case *ast.CallExpr:
				if returnDepth > 0 {
					return true
				}
				if obj := poolCallObj(info, n, "Get"); obj != nil {
					acqs = append(acqs, closeAcq{
						node:  n,
						event: closeEvent{"pool", obj},
						what:  "sync.Pool Get on " + obj.Name(),
					})
				}
				if put := ctorPair(info, n); put != nil {
					acqs = append(acqs, closeAcq{
						node:  n,
						event: closeEvent{"ctor", put},
						what:  calleeName(n) + " result",
					})
				}
			}
			return true
		})
	}
	walk(body)
	return acqs
}

// releaseEvents classifies one call as the release events it provides.
func releaseEvents(info *types.Info, call *ast.CallExpr) []closeEvent {
	var evs []closeEvent
	if obj := poolCallObj(info, call, "Put"); obj != nil {
		evs = append(evs, closeEvent{"pool", obj})
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
		if obj := flow.BaseObject(info, sel.X); obj != nil {
			evs = append(evs, closeEvent{"stop", obj})
		}
	}
	if callee := flow.CalleeOf(info, call); callee != nil {
		if _, rest, ok := splitPrefixUpper(callee.Name(), "Put"); ok && rest != "" {
			evs = append(evs, closeEvent{"ctor", callee})
		}
	}
	return evs
}

// poolCallObj matches pool.<method>() on a sync.Pool and resolves the
// pool expression to its declaring object so Get and Put pair up.
func poolCallObj(info *types.Info, call *ast.CallExpr, method string) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	if !isNamedType(info.TypeOf(sel.X), "sync", "Pool") {
		return nil
	}
	return flow.BaseObject(info, sel.X)
}

// timerCtor matches time.NewTimer / time.NewTicker calls and names the
// kind for diagnostics.
func timerCtor(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := flow.CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	switch fn.Name() {
	case "NewTimer":
		return "time.Timer"
	case "NewTicker":
		return "time.Ticker"
	}
	return ""
}

// ctorPair matches a call to a package-level GetX whose package also
// declares PutX taking at least one parameter, and returns the PutX
// object the release must resolve to.
func ctorPair(info *types.Info, call *ast.CallExpr) *types.Func {
	callee := flow.CalleeOf(info, call)
	if callee == nil || callee.Pkg() == nil {
		return nil
	}
	if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	_, rest, ok := splitPrefixUpper(callee.Name(), "Get")
	if !ok || rest == "" {
		return nil
	}
	put, ok := callee.Pkg().Scope().Lookup("Put" + rest).(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := put.Type().(*types.Signature); !ok || sig.Params().Len() == 0 {
		return nil
	}
	return put
}

// splitPrefixUpper splits name into prefix and the rest when the rest
// starts with an upper-case letter (GetSplitScratch → "SplitScratch";
// plain "Getter" does not match).
func splitPrefixUpper(name, prefix string) (string, string, bool) {
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return "", "", false
	}
	rest := name[len(prefix):]
	if rest[0] < 'A' || rest[0] > 'Z' {
		return "", "", false
	}
	return prefix, rest, true
}
