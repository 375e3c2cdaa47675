package lint

import (
	"go/ast"
)

// CtxFirst enforces the Go context convention on the repository's
// exported API: an exported function or method that accepts a
// context.Context must take it as its first parameter. A context buried
// later in the signature hides the cancellation contract from callers
// and breaks the ctx-threading idiom the query service relies on.
// Unexported helpers are exempt (they may order parameters to suit
// their single caller), as is a signature whose first parameter is
// already a context.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "exported functions accepting a context.Context must take it first",
	Run:  runCtxFirst,
}

func runCtxFirst(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name == nil || !fn.Name.IsExported() {
				continue
			}
			checkCtxFirst(p, fn)
		}
	}
}

// checkCtxFirst reports fn when it accepts a context anywhere but the
// first (flattened) parameter position.
func checkCtxFirst(p *Pass, fn *ast.FuncDecl) {
	if fn.Type.Params == nil {
		return
	}
	idx := 0
	firstCtx := -1
	var firstCtxField *ast.Field
	for _, field := range fn.Type.Params.List {
		names := len(field.Names)
		if names == 0 {
			names = 1 // unnamed parameter still occupies one position
		}
		if firstCtx < 0 && isCtxType(p.Pkg.Info.TypeOf(field.Type)) {
			firstCtx = idx
			firstCtxField = field
		}
		idx += names
	}
	if firstCtx > 0 {
		p.Reportf(firstCtxField.Pos(),
			"exported %s takes context.Context as parameter %d; contexts go first",
			fn.Name.Name, firstCtx+1)
	}
}
