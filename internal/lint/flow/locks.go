package flow

import (
	"go/ast"
	"go/types"
	"maps"
	"sort"
)

// LockClass identifies one mutex "class": a struct field or variable of
// type sync.Mutex / sync.RWMutex (possibly behind a pointer). Two
// instances of the same field (e.g. two cache shards' mu) share a
// class — acquisition-order analysis is about classes, not instances.
type LockClass struct {
	// Obj is the field or variable object declaring the mutex.
	Obj types.Object
	// Name renders the class for diagnostics (pkg.Type.field).
	Name string
}

// LockOp is one lock or unlock call site.
type LockOp struct {
	// Class is the mutex class operated on.
	Class *LockClass
	// Acquire is true for Lock/RLock, false for Unlock/RUnlock.
	Acquire bool
}

// lockClasses canonicalizes LockClass values per object so analyzers
// can compare classes by pointer.
type lockClasses struct {
	byObj map[types.Object]*LockClass
}

func newLockClasses() *lockClasses {
	return &lockClasses{byObj: make(map[types.Object]*LockClass)}
}

func (lc *lockClasses) classFor(obj types.Object) *LockClass {
	if c, ok := lc.byObj[obj]; ok {
		return c
	}
	name := obj.Name()
	if obj.Pkg() != nil {
		if owner := FieldOwner(obj); owner != "" {
			name = obj.Pkg().Path() + "." + owner + "." + obj.Name()
		} else {
			name = obj.Pkg().Path() + "." + obj.Name()
		}
	}
	c := &LockClass{Obj: obj, Name: name}
	lc.byObj[obj] = c
	return c
}

// isSyncLocker reports whether t (behind at most one pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncLocker(t types.Type) bool {
	pkg, name := NamedType(t)
	return pkg == "sync" && (name == "Mutex" || name == "RWMutex")
}

// lockOpOf recognizes x.mu.Lock() / Unlock() / RLock() / RUnlock()
// calls and returns the operation, or nil.
func (lc *lockClasses) lockOpOf(info *types.Info, call *ast.CallExpr) *LockOp {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var acquire bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil
	}
	recv := ast.Unparen(sel.X)
	if !isSyncLocker(info.TypeOf(recv)) {
		return nil
	}
	obj := BaseObject(info, recv)
	if obj == nil {
		return nil
	}
	return &LockOp{Class: lc.classFor(obj), Acquire: acquire}
}

// BaseObject resolves a mutex- or pool-valued expression to its
// declaring object: the field for p.mu / s.shard.mu, the variable for a
// plain mu. Returns nil for expressions with no stable identity (map
// index, function result).
func BaseObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	case *ast.StarExpr:
		return BaseObject(info, e.X)
	case *ast.IndexExpr:
		return BaseObject(info, e.X)
	}
	return nil
}

// HeldVisit receives each expression-level node of a function body
// together with the set of lock classes held at that point (must-hold:
// held on every path reaching the node).
type HeldVisit func(n ast.Node, held []*LockClass)

// LockFacts aggregates per-function lock behavior across a Program.
type LockFacts struct {
	prog    *Program
	classes *lockClasses
	// direct[f] is the set of classes f locks directly.
	direct map[*types.Func]map[*LockClass]bool
	// acquires[f] is the transitive closure: classes f or anything it
	// calls may lock.
	acquires map[*types.Func]map[*LockClass]bool
}

// BuildLockFacts scans every declared function for direct lock
// operations and closes the acquisition sets over the call graph.
func BuildLockFacts(prog *Program) *LockFacts {
	lf := &LockFacts{
		prog:     prog,
		classes:  newLockClasses(),
		direct:   make(map[*types.Func]map[*LockClass]bool),
		acquires: make(map[*types.Func]map[*LockClass]bool),
	}
	for fn, fi := range prog.Funcs {
		set := make(map[*LockClass]bool)
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op := lf.classes.lockOpOf(fi.Pkg.Info, call); op != nil && op.Acquire {
				set[op.Class] = true
			}
			return true
		})
		lf.direct[fn] = set
	}
	// Fixpoint over the call graph.
	for changed := true; changed; {
		changed = false
		for fn, fi := range prog.Funcs {
			acq := lf.acquires[fn]
			if acq == nil {
				acq = make(map[*LockClass]bool, len(lf.direct[fn]))
				lf.acquires[fn] = acq
			}
			for c := range lf.direct[fn] {
				if !acq[c] {
					acq[c] = true
					changed = true
				}
			}
			for _, callee := range fi.Callees {
				for c := range lf.acquires[callee] {
					if !acq[c] {
						acq[c] = true
						changed = true
					}
				}
			}
		}
	}
	return lf
}

// Acquires returns the classes fn may (transitively) acquire.
func (lf *LockFacts) Acquires(fn *types.Func) map[*LockClass]bool {
	return lf.acquires[fn]
}

// LockOpOf exposes lock-call recognition to analyzers sharing these
// facts (canonicalized to the same class pointers).
func (lf *LockFacts) LockOpOf(info *types.Info, call *ast.CallExpr) *LockOp {
	return lf.classes.lockOpOf(info, call)
}

// lockSet is the must-hold fact: the classes held on every path
// reaching a point. Sets are never modified once built, so states,
// boundaries and meets can share them.
type lockSet = set[*LockClass]

// heldAfter returns the set once op has executed.
func heldAfter(held lockSet, op *LockOp) lockSet {
	out := held.clone()
	if op.Acquire {
		out[op.Class] = true
	} else {
		delete(out, op.Class)
	}
	return out
}

func sortedClasses(held lockSet) []*LockClass {
	out := make([]*LockClass, 0, len(held))
	for c := range held {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WalkHeld solves the must-hold problem over fi's body — forward over
// its CFG, Lock generating and Unlock killing a class, paths meeting by
// intersection — and then reports every expression node to visit with
// the classes held at that point. A deferred x.mu.Unlock() keeps the
// lock held to function end. Function literals are solved as bodies of
// their own, starting from the held set at their creation point (a
// sound approximation for the immediately-invoked closures this
// codebase uses); deferred and spawned closures run in an unknown lock
// context and start from empty, as does dead code.
func (lf *LockFacts) WalkHeld(fi *FuncInfo, visit HeldVisit) {
	w := &heldWalk{facts: lf, info: fi.Pkg.Info, visit: visit}
	w.body(fi.Decl.Body, nil)
}

type heldWalk struct {
	facts *LockFacts
	info  *types.Info
	visit HeldVisit
}

// lockStmt returns the lock operation a block node performs. Lock and
// Unlock return nothing, so outside defer and go statements they can
// only stand as an expression statement of their own.
func (w *heldWalk) lockStmt(n ast.Node) *LockOp {
	if es, ok := n.(*ast.ExprStmt); ok {
		if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
			return w.facts.classes.lockOpOf(w.info, call)
		}
	}
	return nil
}

// body solves one function body entered holding boundary, then reports
// its nodes block by block over the converged states.
func (w *heldWalk) body(body *ast.BlockStmt, boundary lockSet) {
	g := BuildCFG(body)
	in := Solve(g, Problem[lockSet]{
		Boundary: boundary,
		Transfer: func(b *Block, held lockSet) lockSet {
			for _, n := range b.Nodes {
				if op := w.lockStmt(n); op != nil {
					held = heldAfter(held, op)
				}
			}
			return held
		},
		Meet:  intersection[*LockClass],
		Equal: maps.Equal[lockSet, lockSet],
	})
	for _, b := range g.Blocks {
		held := in[b]
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ast.DeferStmt:
				w.detached(n.Call, held)
			case *ast.GoStmt:
				w.detached(n.Call, held)
			default:
				w.exprs(n, held)
			}
			if op := w.lockStmt(n); op != nil {
				held = heldAfter(held, op)
			}
		}
	}
}

// detached reports a deferred or spawned call. Its function and
// argument expressions are evaluated here, under held; the call itself
// runs later, so it is not reported, a deferred lock operation changes
// nothing now, and a closure body starts from empty.
func (w *heldWalk) detached(call *ast.CallExpr, held lockSet) {
	if w.facts.classes.lockOpOf(w.info, call) != nil {
		return
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.body(fl.Body, nil)
		return
	}
	w.exprs(call.Fun, held)
	for _, arg := range call.Args {
		w.exprs(arg, held)
	}
}

// exprs reports every expression under n with the held set, which no
// expression inside a single block node can change.
func (w *heldWalk) exprs(n ast.Node, held lockSet) {
	sorted := sortedClasses(held)
	ast.Inspect(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.BlockStmt:
			// A range statement's body: its statements are further blocks.
			return false
		case *ast.FuncLit:
			w.body(sub.Body, held)
			return false
		case *ast.CallExpr:
			w.visit(sub, sorted)
			// The receiver of a lock operation is the mutex itself, not
			// an access made under it.
			return w.facts.classes.lockOpOf(w.info, sub) == nil
		case ast.Expr:
			w.visit(sub, sorted)
		}
		return true
	})
}
