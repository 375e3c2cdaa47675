package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"mloc/internal/lint/flow"
)

// ClockCharge enforces the virtual-clock accounting invariant in the
// simulation core (internal/pfs, internal/core): any code path that
// records simulated I/O in a Stats struct (Reads, Opens, BytesRead,
// BytesWritten) must also charge the Clock before returning — via
// advanceTo, AdvanceBy, AdvanceCPU, AdvanceParallel, MeasureCPU, or
// SyncMax, directly or through a callee that always charges. Mutating
// stats without advancing the clock makes simulated time drift from
// the recorded work, which silently skews every layout comparison the
// simulator produces.
//
// Seeks and OSTBusy are deliberately outside the trigger set: the
// charge helper increments them while its callers advance the clock.
var ClockCharge = &Analyzer{
	Name:       "clockcharge",
	Doc:        "simulated I/O recorded in Stats must charge the Clock on every path before returning (internal/pfs, internal/core)",
	RunProgram: runClockCharge,
}

// clockStatsFields are the Stats fields whose mutation demands a
// clock charge on the same path.
var clockStatsFields = map[string]bool{
	"Reads":        true,
	"Opens":        true,
	"BytesRead":    true,
	"BytesWritten": true,
}

// clockChargeMethods are the Clock methods that advance simulated time.
var clockChargeMethods = map[string]bool{
	"advanceTo":       true,
	"AdvanceBy":       true,
	"AdvanceCPU":      true,
	"AdvanceParallel": true,
	"MeasureCPU":      true,
	"SyncMax":         true,
}

func runClockCharge(p *ProgramPass) {
	charges := flow.NewEveryPath(p.Flow, isClockCharge)
	for _, pkg := range p.Pkgs {
		if !pathHasSuffix(pkg.Path, "internal/pfs") && !pathHasSuffix(pkg.Path, "internal/core") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				clockChargeBody(p, pkg.Info, fd.Body, charges)
			}
		}
	}
}

// clockChargeBody checks every stats mutation in one function body;
// nested function literals run under their own control flow and get
// their own graph.
func clockChargeBody(p *ProgramPass, info *types.Info, body *ast.BlockStmt, charges *flow.EveryPath) {
	triggers := statsMutations(info, body)
	for _, stmt := range body.List {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				clockChargeBody(p, info, fl.Body, charges)
				return false
			}
			return true
		})
	}
	if len(triggers) == 0 {
		return
	}
	facts := charges.Solve(info, body)
	for _, t := range triggers {
		if !facts.OnEveryPathFrom(t.node, flow.Done{}) {
			p.Reportf(t.node.Pos(), "Stats.%s is mutated without charging the Clock on every path before return", t.field)
		}
	}
}

// statsMutation is one Stats field write that must be charged.
type statsMutation struct {
	node  ast.Node
	field string
}

// statsMutations finds ++/+= mutations of tracked Stats fields in
// body, skipping nested function literals.
func statsMutations(info *types.Info, body *ast.BlockStmt) []statsMutation {
	var out []statsMutation
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IncDecStmt:
			if f := trackedStatsField(info, n.X); f != "" && n.Tok == token.INC {
				out = append(out, statsMutation{node: n, field: f})
			}
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN {
				return true
			}
			for _, lhs := range n.Lhs {
				if f := trackedStatsField(info, lhs); f != "" {
					out = append(out, statsMutation{node: n, field: f})
				}
			}
		}
		return true
	})
	return out
}

// trackedStatsField matches expr against <stats>.<field> where field
// is in the trigger set and the base is a Stats struct.
func trackedStatsField(info *types.Info, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !clockStatsFields[sel.Sel.Name] {
		return ""
	}
	if !isNamedTypeName(info.TypeOf(sel.X), "Stats") {
		return ""
	}
	return sel.Sel.Name
}

// isClockCharge matches clock.<method>(...) for the charging methods
// on a type named Clock; flow.EveryPath adds calls to functions whose
// own body charges on every path.
func isClockCharge(info *types.Info, n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !clockChargeMethods[sel.Sel.Name] {
		return false
	}
	return isNamedTypeName(info.TypeOf(sel.X), "Clock")
}

// isNamedTypeName reports whether t (behind at most one pointer) is a
// named type with the given name, whatever its package.
func isNamedTypeName(t types.Type, name string) bool {
	_, n := flow.NamedType(t)
	return n == name
}
