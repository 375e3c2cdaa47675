package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mloc/internal/lint/flow"
)

// AtomicMix cross-references every struct-field access in the loaded
// packages against its synchronization discipline and reports two
// mixes:
//
//   - a field updated through sync/atomic calls in one place and read
//     or written plainly in another — the plain access races with the
//     atomic one and the race detector only catches it when both sides
//     fire in the same run;
//   - a field accessed while holding lock class A in one function and
//     lock class B (with no overlap) in another — two mutexes guarding
//     one field guard nothing.
//
// Constructors (New*/new*), init, and *Locked helpers (the repo's
// caller-holds-the-mutex convention) are exempt: they run before
// publication or under the caller's lock. Fields of sync.* types and
// the typed atomics (atomic.Int64 etc.) are skipped — their API
// already enforces the discipline.
var AtomicMix = &Analyzer{
	Name:       "atomicmix",
	Doc:        "struct fields must keep one synchronization discipline: atomic, one mutex, or neither",
	RunProgram: runAtomicMix,
}

// atomicSite is one access observation.
type atomicSite struct {
	pos  token.Pos
	held []*flow.LockClass
}

// fieldAccess aggregates one field's observed accesses.
type fieldAccess struct {
	obj    types.Object
	atomic []atomicSite
	plain  []atomicSite
}

func runAtomicMix(p *ProgramPass) {
	facts := p.LockFacts()
	fields := make(map[types.Object]*fieldAccess)
	rec := func(obj types.Object) *fieldAccess {
		fa := fields[obj]
		if fa == nil {
			fa = &fieldAccess{obj: obj}
			fields[obj] = fa
		}
		return fa
	}
	for _, fi := range p.Flow.Funcs {
		if atomicExempt(fi.Obj.Name()) {
			continue
		}
		info := fi.Pkg.Info
		// Pre-pass: find the &x.f arguments of sync/atomic calls so the
		// held walk records them as atomic, not plain.
		consumed := make(map[*ast.SelectorExpr]bool)
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicPkgCall(info, call) {
				return true
			}
			for _, arg := range call.Args {
				if sel := addrOfField(info, arg); sel != nil {
					consumed[sel] = true
				}
			}
			return true
		})
		facts.WalkHeld(fi, func(n ast.Node, held []*flow.LockClass) {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !isAtomicPkgCall(info, n) {
					return
				}
				for _, arg := range n.Args {
					if sel := addrOfField(info, arg); sel != nil {
						if obj := fieldObjOf(info, sel); obj != nil {
							rec(obj).atomic = append(rec(obj).atomic, atomicSite{pos: sel.Pos(), held: held})
						}
					}
				}
			case *ast.SelectorExpr:
				if consumed[n] {
					return
				}
				obj := fieldObjOf(info, n)
				if obj == nil || syncDisciplined(obj.Type()) {
					return
				}
				rec(obj).plain = append(rec(obj).plain, atomicSite{pos: n.Pos(), held: held})
			}
		})
	}

	objs := make([]types.Object, 0, len(fields))
	for obj := range fields {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })
	for _, obj := range objs {
		fa := fields[obj]
		name := fieldDisplayName(obj)
		if len(fa.atomic) > 0 && len(fa.plain) > 0 {
			sortSites(fa.plain)
			sortSites(fa.atomic)
			p.Reportf(fa.plain[0].pos,
				"field %s is accessed atomically at %s but plainly here; use the atomic API for every access",
				name, p.fset.Position(fa.atomic[0].pos))
			continue
		}
		if site, other := guardConflict(fa.plain); site != nil {
			p.Reportf(site.pos,
				"field %s is accessed holding %s here but holding %s at %s; one field, one guard",
				name, heldNames(site.held), heldNames(other.held), p.fset.Position(other.pos))
		}
	}
}

// guardConflict finds the first pair of sites whose held sets are both
// non-empty yet disjoint — two different mutexes "guarding" the field.
func guardConflict(sites []atomicSite) (*atomicSite, *atomicSite) {
	sortSites(sites)
	for i := range sites {
		if len(sites[i].held) == 0 {
			continue
		}
		for j := range sites[:i] {
			if len(sites[j].held) == 0 {
				continue
			}
			if !classesOverlap(sites[i].held, sites[j].held) {
				return &sites[i], &sites[j]
			}
		}
	}
	return nil, nil
}

func classesOverlap(a, b []*flow.LockClass) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func sortSites(sites []atomicSite) {
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
}

// heldNames renders a held set for diagnostics.
func heldNames(held []*flow.LockClass) string {
	names := make([]string, len(held))
	for i, c := range held {
		names[i] = shortClass(c.Name)
	}
	return strings.Join(names, "+")
}

// atomicExempt reports whether a function is outside the discipline
// check: constructors and init run before the value is shared, and
// *Locked helpers run under the caller's mutex by convention.
func atomicExempt(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") ||
		strings.HasSuffix(name, "Locked") || name == "init"
}

// isAtomicPkgCall reports whether call invokes a sync/atomic function.
func isAtomicPkgCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

// addrOfField unwraps &x.f and returns the selector, or nil.
func addrOfField(info *types.Info, arg ast.Expr) *ast.SelectorExpr {
	ue, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if fieldObjOf(info, sel) == nil {
		return nil
	}
	return sel
}

// fieldObjOf resolves a selector to the struct field it reads, or nil.
func fieldObjOf(info *types.Info, sel *ast.SelectorExpr) types.Object {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj()
}

// pkgPathOf returns the object's package path ("" for none).
func pkgPathOf(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// syncDisciplined reports whether a field's type already enforces its
// own synchronization: the sync primitives and the typed atomics.
func syncDisciplined(t types.Type) bool {
	pkg, _ := flow.NamedType(t)
	return pkg == "sync" || pkg == "sync/atomic"
}

// fieldDisplayName renders pkg.Type.field for diagnostics.
func fieldDisplayName(obj types.Object) string {
	if owner := flow.FieldOwner(obj); owner != "" {
		return shortClass(pkgPathOf(obj)+"."+owner) + "." + obj.Name()
	}
	return shortClass(pkgPathOf(obj) + "." + obj.Name())
}
