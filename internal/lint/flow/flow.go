// Package flow is the analysis substrate under mlocvet's flow-aware
// analyzers: a go/types-based static call graph over every loaded
// package, a basic-block control-flow graph per function body
// (BuildCFG), and one dataflow solver over that graph (Solve) of which
// every per-function analysis here is an instance:
//
//   - events that must still happen on every path from a point to the
//     exit (SolveMust: backward, intersection);
//   - deferred events already registered on every path to a point
//     (SolveMust: forward, intersection);
//   - events that already happened on every path to a point
//     (SolveMust: forward, intersection);
//   - mutexes held on every path to a point (WalkHeld: forward,
//     intersection, Unlock killing what Lock generated).
//
// The package deliberately mirrors internal/lint's constraints — only
// the standard library (go/ast, go/token, go/types) — and deliberately
// does NOT import internal/lint, so the dependency arrow runs
// lint → flow and the analyzers in internal/lint can build on both.
//
// The analyses are intentionally approximate in the usual linter way:
//
//   - The call graph is static: only calls that resolve to a named
//     *types.Func (direct calls, method calls on concrete receivers)
//     produce edges; calls through interfaces or function values do
//     not.
//   - The CFG is syntactic: return, panic, os.Exit, runtime.Goexit and
//     log.Fatal* end a path; nothing else is known not to return.
//   - A deferred unlock keeps its mutex held to the end of the function,
//     and a function literal is solved as a body of its own.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PackageInfo is flow's view of one loaded, type-checked package. It
// mirrors internal/lint's Package without importing it.
type PackageInfo struct {
	// Path is the package's import path.
	Path string
	// Fset is the shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries the type checker's facts.
	Info *types.Info
}

// FuncInfo is one function or method declaration with a body, plus its
// statically resolved callees.
type FuncInfo struct {
	// Pkg is the declaring package.
	Pkg *PackageInfo
	// Decl is the declaration (Body is non-nil).
	Decl *ast.FuncDecl
	// Obj is the type checker's object for the function.
	Obj *types.Func
	// Callees lists the statically resolved called functions, in
	// source order, possibly with duplicates.
	Callees []*types.Func
}

// Program is the whole-program view the flow-aware analyzers share.
type Program struct {
	// Fset is the shared file set.
	Fset *token.FileSet
	// Pkgs are the analyzed packages in load order.
	Pkgs []*PackageInfo
	// Funcs indexes every declared function with a body.
	Funcs map[*types.Func]*FuncInfo
}

// BuildProgram resolves the static call graph over pkgs.
func BuildProgram(pkgs []*PackageInfo) *Program {
	p := &Program{Funcs: make(map[*types.Func]*FuncInfo)}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	p.Pkgs = pkgs
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Pkg: pkg, Decl: fd, Obj: obj}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if callee := CalleeOf(pkg.Info, call); callee != nil {
						fi.Callees = append(fi.Callees, callee)
					}
					return true
				})
				p.Funcs[obj] = fi
			}
		}
	}
	return p
}

// CalleeOf resolves a call expression to the called named function, or
// nil when the callee is dynamic (interface method value, function
// value, conversion, builtin).
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// QualifiedName renders a function as pkg.Recv.Name for diagnostics.
func QualifiedName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if recv := recvTypeName(fn); recv != "" {
		return fmt.Sprintf("%s.%s.%s", fn.Pkg().Path(), recv, fn.Name())
	}
	return fmt.Sprintf("%s.%s", fn.Pkg().Path(), fn.Name())
}

// recvTypeName returns the receiver's base type name, or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	_, name := NamedType(sig.Recv().Type())
	return name
}

// NamedType names the defined type behind t, looking through at most
// one pointer: its package path ("" for a universe type such as error)
// and its name. Both are "" when t is not a defined type.
func NamedType(t types.Type) (pkgPath, name string) {
	if t == nil {
		return "", ""
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	if pkg := named.Obj().Pkg(); pkg != nil {
		pkgPath = pkg.Path()
	}
	return pkgPath, named.Obj().Name()
}

// FieldOwner returns the name of the struct type declaring a field
// object, or "" when obj is not a struct field. The type checker does
// not link fields back to their named type, so the declaring package's
// scope is searched.
func FieldOwner(obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || obj.Pkg() == nil {
		return ""
	}
	scope := obj.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == obj {
				return tn.Name()
			}
		}
	}
	return ""
}
