package lint

import (
	"go/ast"
	"go/types"
)

// UncheckedErr forbids discarding error results, either by assigning
// them to the blank identifier or by calling an error-returning
// function as a bare statement. In this codebase a swallowed error
// usually means a query silently returns partial matches or an
// experiment table is built on a failed store.
//
// Pragmatic exemptions, mirroring errcheck's defaults: fmt.Print,
// fmt.Printf and fmt.Println (terminal output), fmt.Fprint* when the
// writer is os.Stdout, os.Stderr, a *bytes.Buffer, a
// *strings.Builder, or a *tabwriter.Writer, and methods on
// *bytes.Buffer and *strings.Builder — all of which are documented
// never to return a meaningful error. Anything else opts out with
// //mlocvet:ignore uncheckederr.
var UncheckedErr = &Analyzer{
	Name: "uncheckederr",
	Doc:  "error results must not be discarded via _ or a bare call statement",
	Run:  runUncheckedErr,
}

func runUncheckedErr(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok || !returnsError(p.Pkg.Info, call) || exemptCall(p.Pkg.Info, call) {
					return true
				}
				p.Reportf(call.Pos(), "result of %s includes an error that is discarded by the bare call", calleeName(call))
			case *ast.AssignStmt:
				checkAssignDiscard(p, n)
			}
			return true
		})
	}
}

// checkAssignDiscard flags blank-identifier positions that receive an
// error value.
func checkAssignDiscard(p *Pass, as *ast.AssignStmt) {
	info := p.Pkg.Info
	// Multi-value form: x, _ := f() with one call on the right.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || exemptCall(info, call) {
			return
		}
		tuple, ok := info.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return
		}
		for i, lhs := range as.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				p.Reportf(lhs.Pos(), "error result of %s discarded via _", calleeName(call))
			}
		}
		return
	}
	// Pairwise form: _ = f(), possibly in a parallel assignment.
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) || !isBlank(lhs) {
			continue
		}
		rhs := as.Rhs[i]
		if !isErrorType(info.TypeOf(rhs)) {
			continue
		}
		if call, ok := rhs.(*ast.CallExpr); ok && exemptCall(info, call) {
			continue
		}
		p.Reportf(lhs.Pos(), "error value discarded via _")
	}
}

// returnsError reports whether any result of the call is an error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// exemptCall reports whether the call's error is conventionally
// ignorable (see the analyzer doc).
func exemptCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Method on an always-succeeding writer.
	if s := info.Selections[sel]; s != nil {
		return isSafeWriter(s.Recv())
	}
	// Package function: fmt print family.
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "fmt" {
		return false
	}
	switch sel.Sel.Name {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		if len(call.Args) == 0 {
			return false
		}
		return isStdStream(call.Args[0]) || isSafeWriter(info.TypeOf(call.Args[0]))
	}
	return false
}

// isStdStream reports whether e is syntactically os.Stdout or
// os.Stderr.
func isStdStream(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Stdout" && sel.Sel.Name != "Stderr") {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "os"
}

// isSafeWriter reports whether t is a writer whose Write methods never
// return a meaningful error.
func isSafeWriter(t types.Type) bool {
	return isNamedType(t, "bytes", "Buffer") || isNamedType(t, "strings", "Builder") ||
		isNamedType(t, "text/tabwriter", "Writer")
}

// calleeName renders the called function for a diagnostic.
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}
