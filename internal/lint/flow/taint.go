package flow

// taint.go is the interprocedural taint-tracking layer of the flow
// engine: per-function summaries (which params and results carry
// untrusted data, which params reach dangerous sinks) computed
// bottom-up over the static call graph, with an intraprocedural
// transfer function over the basic-block CFG so taint respects
// path-sensitive sanitization.
//
// The lattice per value is a small bit mask: one bit for "derived from
// an untrusted source" (HTTP request data, JSON decoded from peer
// responses, varint-decoded wire bytes) and one bit per function
// parameter. The block solve is the union-meet instance of Solve, the
// dual of SolveMust's intersection: a fact merged from any predecessor
// survives, so a bounds check that guards only one path does NOT
// sanitize the others — the precision a linear source-order walk
// lacks. Within a path, an ordered comparison
// (<, <=, >, >=) mentioning a value clears its taint from that point
// on: every block the comparison dominates sees the value as bounded,
// which is exactly the repository's rejection idiom
// ("if n > max { return err }").
//
// Summaries compose: a function that bounds-checks before returning
// has clean result masks, so a sanitizer two calls below a source
// still clears the taint at the top. Named sanitizers
// (DecodeBytesMax, uvarintMax, io.LimitReader, http.MaxBytesReader)
// and name-based sources (the uvarint family, http.Request/Response
// data) cover callees whose bodies are outside the analyzed program
// (the standard library, fixtures). Name rules apply only when no
// computed summary exists.
//
// Approximations, chosen to keep the analysis quiet on legitimate
// code: struct-field writes drop taint (the holder object is not
// tainted wholesale), len/cap of a tainted container are clean (their
// magnitude is bounded by bytes actually received), and function
// literals run under their own control flow and are not analyzed.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// Mask is a set of taint origins for one value: SourceBit marks
// "derived from an untrusted source"; ParamBit(i) marks "derived from
// parameter i" of the function under analysis (receiver first when
// present).
type Mask uint64

// SourceBit is the untrusted-source origin.
const SourceBit Mask = 1

// maxParamBits caps how many parameters get distinct bits; later
// parameters share the last bit (sound: sharing only widens taint).
const maxParamBits = 62

// ParamBit returns the mask bit of parameter index i.
func ParamBit(i int) Mask {
	if i >= maxParamBits {
		i = maxParamBits - 1
	}
	return Mask(2) << uint(i)
}

// HasSource reports whether the mask carries the untrusted-source bit.
func (m Mask) HasSource() bool { return m&SourceBit != 0 }

// paramIndices lists the parameter indices present in the mask.
func (m Mask) paramIndices() []int {
	var out []int
	for i := 0; i < maxParamBits; i++ {
		if m&ParamBit(i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// SinkKind classifies where a tainted value would do damage.
type SinkKind int

// The sink kinds the engine recognizes.
const (
	// SinkAlloc is a make() length or capacity argument.
	SinkAlloc SinkKind = iota
	// SinkSliceBound is a slice-expression bound.
	SinkSliceBound
	// SinkIndex is an index expression over a slice, array, or string.
	SinkIndex
	// SinkLoopBound is a loop-condition bound.
	SinkLoopBound
	// SinkSleep is a sleep or timeout duration.
	SinkSleep
	// SinkLabel is a metric label value or metric name.
	SinkLabel
)

// String names the sink kind for diagnostics.
func (k SinkKind) String() string {
	switch k {
	case SinkAlloc:
		return "make size"
	case SinkSliceBound:
		return "slice bound"
	case SinkIndex:
		return "index"
	case SinkLoopBound:
		return "loop bound"
	case SinkSleep:
		return "sleep/timeout duration"
	case SinkLabel:
		return "metric label value"
	}
	return "sink"
}

// SinkRef is one sink occurrence inside (or transitively below) a
// summarized function, reachable by a parameter's value.
type SinkRef struct {
	// Kind classifies the sink.
	Kind SinkKind
	// Pos locates the sink expression (inside the callee).
	Pos token.Pos
	// Expr renders the sink expression.
	Expr string
	// Path names the call hops below the summarized function, empty
	// for a local sink.
	Path string
}

// Summary is one function's taint contract, in terms of its own
// parameter bits.
type Summary struct {
	// Fn is the summarized function.
	Fn *types.Func
	// NumParams counts the receiver (when present) plus the parameters.
	NumParams int
	// Results[r] is the taint mask of result r.
	Results []Mask
	// ParamOut[p] is the mask written through pointer parameter p
	// (e.g. a decode helper filling its target argument).
	ParamOut []Mask
	// ParamSinks[p] lists sinks reachable by parameter p's value
	// without an intervening bounds check.
	ParamSinks [][]SinkRef
}

// Finding is one source-to-sink flow detected in a function body.
type Finding struct {
	// Kind classifies the sink.
	Kind SinkKind
	// Pos locates the flagged expression (the sink locally, or the
	// tainted argument at a call site for interprocedural flows).
	Pos token.Pos
	// Expr renders the flagged expression.
	Expr string
	// Path names the call hops from the flagged expression to the
	// sink, empty for local flows.
	Path string
}

// Taint holds the whole-program taint facts: one Summary per declared
// function and the findings of the final reporting pass.
type Taint struct {
	prog     *Program
	sums     map[*types.Func]*Summary
	cfgs     map[*types.Func]*Graph
	findings []Finding
}

// maxSummaryPasses bounds the global summary fixpoint (recursion makes
// it iterate; real call graphs converge in two or three passes).
const maxSummaryPasses = 10

// maxSinkRefs caps the sinks recorded per parameter, and maxSinkDepth
// the interprocedural hops a sink path may take, keeping summaries and
// messages bounded on pathological graphs.
const (
	maxSinkRefs  = 8
	maxSinkDepth = 4
)

// BuildTaint computes taint summaries bottom-up over the program's
// call graph and runs the reporting pass.
func BuildTaint(p *Program) *Taint {
	t := &Taint{
		prog: p,
		sums: make(map[*types.Func]*Summary, len(p.Funcs)),
		cfgs: make(map[*types.Func]*Graph, len(p.Funcs)),
	}
	order := t.postorder()
	for pass := 0; pass < maxSummaryPasses; pass++ {
		changed := false
		for _, fi := range order {
			sum, _ := t.analyzeFunc(fi, false)
			if !reflect.DeepEqual(t.sums[fi.Obj], sum) {
				t.sums[fi.Obj] = sum
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	seen := make(map[string]bool)
	for _, fi := range order {
		_, fs := t.analyzeFunc(fi, true)
		for _, f := range fs {
			// One diagnostic per sink position: several flows (or call
			// paths) into the same expression say the same thing.
			key := fmt.Sprintf("%d/%d", f.Pos, f.Kind)
			if !seen[key] {
				seen[key] = true
				t.findings = append(t.findings, f)
			}
		}
	}
	sort.Slice(t.findings, func(i, j int) bool { return t.findings[i].Pos < t.findings[j].Pos })
	return t
}

// SummaryOf returns fn's computed summary, or nil for functions
// outside the program.
func (t *Taint) SummaryOf(fn *types.Func) *Summary { return t.sums[fn] }

// Findings returns every source-to-sink flow, sorted by position.
func (t *Taint) Findings() []Finding { return t.findings }

// postorder orders functions callees-first (DFS postorder over the
// static call graph), so most summaries are ready before their
// callers; recursion is handled by the global fixpoint.
func (t *Taint) postorder() []*FuncInfo {
	roots := make([]*FuncInfo, 0, len(t.prog.Funcs))
	for _, fi := range t.prog.Funcs {
		roots = append(roots, fi)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Decl.Pos() < roots[j].Decl.Pos() })
	var out []*FuncInfo
	seen := make(map[*types.Func]bool, len(roots))
	var visit func(fi *FuncInfo)
	visit = func(fi *FuncInfo) {
		if seen[fi.Obj] {
			return
		}
		seen[fi.Obj] = true
		for _, c := range fi.Callees {
			if ci := t.prog.Funcs[c]; ci != nil {
				visit(ci)
			}
		}
		out = append(out, fi)
	}
	for _, fi := range roots {
		visit(fi)
	}
	return out
}

// cfgOf caches the purely syntactic CFG across fixpoint passes.
func (t *Taint) cfgOf(fi *FuncInfo) *Graph {
	if g := t.cfgs[fi.Obj]; g != nil {
		return g
	}
	g := BuildCFG(fi.Decl.Body)
	t.cfgs[fi.Obj] = g
	return g
}

// taintState maps in-scope objects to their taint masks.
type taintState map[types.Object]Mask

func cloneState(s taintState) taintState {
	out := make(taintState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// unionStates is the meet of the taint problem: a fact from either
// edge survives the join.
func unionStates(a, b taintState) taintState {
	out := cloneState(a)
	for k, v := range b {
		out[k] |= v
	}
	return out
}

// equalStates compares two states as facts: an object mapped to the
// empty mask carries no more taint than one not mapped at all.
func equalStates(a, b taintState) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// analysis is the per-function transfer state shared by the summary
// and reporting passes.
type analysis struct {
	t       *Taint
	fi      *FuncInfo
	info    *types.Info
	g       *Graph
	params  map[types.Object]int
	results []types.Object // named result objects (nil when unnamed)
	collect bool

	sum      *Summary
	findings []Finding
}

// analyzeFunc runs the intraprocedural solve for one function and
// returns its summary (and, when collect is set, its findings).
func (t *Taint) analyzeFunc(fi *FuncInfo, collect bool) (*Summary, []Finding) {
	a := &analysis{
		t:       t,
		fi:      fi,
		info:    fi.Pkg.Info,
		g:       t.cfgOf(fi),
		params:  make(map[types.Object]int),
		collect: collect,
	}
	a.indexParams()
	sig := fi.Obj.Type().(*types.Signature)
	a.sum = &Summary{
		Fn:         fi.Obj,
		NumParams:  len(a.params),
		Results:    make([]Mask, sig.Results().Len()),
		ParamOut:   make([]Mask, a.numParamSlots()),
		ParamSinks: make([][]SinkRef, a.numParamSlots()),
	}

	// Forward union-meet instance of Solve: a block's input only grows
	// and the transfer is a deterministic function of it, so the solve
	// terminates at the least fixpoint.
	entry := make(taintState, len(a.params))
	for obj, idx := range a.params {
		entry[obj] = ParamBit(idx)
	}
	in := Solve(a.g, Problem[taintState]{
		Boundary: entry,
		Transfer: func(b *Block, in taintState) taintState {
			st := cloneState(in)
			for _, n := range b.Nodes {
				a.transfer(n, b, st, false)
			}
			return st
		},
		Meet:  unionStates,
		Equal: equalStates,
	})

	// Deterministic final pass over the converged states: summary
	// outputs and findings are recorded exactly once per node. Dead code
	// is recorded too, from the empty state.
	for _, b := range a.g.Blocks {
		st := cloneState(in[b])
		for _, n := range b.Nodes {
			a.transfer(n, b, st, true)
		}
	}
	return a.sum, a.findings
}

// numParamSlots returns the summary slot count (clamped like ParamBit).
func (a *analysis) numParamSlots() int {
	n := len(a.params)
	if n > maxParamBits {
		n = maxParamBits
	}
	return n
}

// indexParams assigns bit indices: receiver first, then parameters in
// declaration order, and records named result objects.
func (a *analysis) indexParams() {
	idx := 0
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if len(f.Names) == 0 {
				idx++ // unnamed parameter still occupies a slot
				continue
			}
			for _, name := range f.Names {
				if obj := a.info.Defs[name]; obj != nil {
					a.params[obj] = idx
				}
				idx++
			}
		}
	}
	addFields(a.fi.Decl.Recv)
	addFields(a.fi.Decl.Type.Params)
	if res := a.fi.Decl.Type.Results; res != nil {
		for _, f := range res.List {
			if len(f.Names) == 0 {
				a.results = append(a.results, nil)
				continue
			}
			for _, name := range f.Names {
				a.results = append(a.results, a.info.Defs[name])
			}
		}
	}
}

// transfer interprets one block node against st, mutating it in place.
// When record is set, summary outputs and findings are collected.
func (a *analysis) transfer(n ast.Node, blk *Block, st taintState, record bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.scanSinks(n, blk, st, record)
		a.applyAssign(n, st, record)
	case *ast.DeclStmt:
		a.scanSinks(n, blk, st, record)
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				a.applyValueSpec(vs, st)
			}
		}
	case *ast.ExprStmt:
		a.scanSinks(n, blk, st, record)
	case *ast.ReturnStmt:
		a.scanSinks(n, blk, st, record)
		if record {
			a.recordReturn(n, st)
		}
	case *ast.RangeStmt:
		// Only the ranged expression and the key/value bindings belong
		// to this node; the body is decomposed into its own blocks, so
		// neither sinks nor sanitizers inside it may be applied here.
		xMask := a.exprMask(n.X, st)
		if n.Value != nil {
			a.setObj(n.Value, st, xMask)
		}
		if n.Key != nil {
			keyMask := Mask(0)
			if t, ok := a.info.Types[n.X]; ok && t.Type != nil {
				if _, isMap := t.Type.Underlying().(*types.Map); isMap {
					keyMask = xMask
				}
			}
			a.setObj(n.Key, st, keyMask)
		}
		a.sanitizeCompared(n.X, st)
		return
	case *ast.DeferStmt:
		a.scanSinks(n.Call, blk, st, record)
		a.sanitizeCompared(n.Call, st)
		return
	case *ast.GoStmt:
		a.scanSinks(n.Call, blk, st, record)
		a.sanitizeCompared(n.Call, st)
		return
	case *ast.SendStmt, *ast.IncDecStmt, *ast.LabeledStmt:
		a.scanSinks(n, blk, st, record)
	case ast.Expr:
		// A standalone expression node is a branch condition, switch
		// tag, or case expression.
		a.scanSinks(n, blk, st, record)
		a.sanitizeCompared(n, st)
		return
	default:
		if s, ok := n.(ast.Stmt); ok {
			a.scanSinks(s, blk, st, record)
		}
	}
	a.sanitizeCompared(n, st)
}

// applyValueSpec handles `var x = expr` declarations.
func (a *analysis) applyValueSpec(vs *ast.ValueSpec, st taintState) {
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			masks := a.resultMasks(call, st, len(vs.Names))
			for i, name := range vs.Names {
				a.setDef(name, st, masks[i])
			}
			return
		}
	}
	for i, name := range vs.Names {
		m := Mask(0)
		if i < len(vs.Values) {
			m = a.exprMask(vs.Values[i], st)
		}
		a.setDef(name, st, m)
	}
}

// applyAssign updates st for one assignment, consulting callee
// summaries for multi-value calls and recording pointer-param writes.
func (a *analysis) applyAssign(as *ast.AssignStmt, st taintState, record bool) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			masks := a.resultMasks(call, st, len(as.Lhs))
			for i, lhs := range as.Lhs {
				a.assignTo(lhs, st, masks[i], record)
			}
			return
		}
		// Multi-value from a map/type assertion: first value carries
		// the container's mask, the ok bool is clean.
		m := a.exprMask(as.Rhs[0], st)
		a.assignTo(as.Lhs[0], st, m, record)
		for _, lhs := range as.Lhs[1:] {
			a.assignTo(lhs, st, 0, record)
		}
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		m := a.exprMask(as.Rhs[i], st)
		switch as.Tok {
		case token.ASSIGN, token.DEFINE:
			a.assignTo(lhs, st, m, record)
		default:
			// Compound assignment widens the target's mask.
			if obj := a.lhsObject(lhs); obj != nil {
				st[obj] |= m
			}
		}
	}
}

// assignTo writes mask m to the assignment target: plain variables get
// m; a write through a pointer parameter is recorded in ParamOut;
// field and element writes drop the mask (holders are not tainted
// wholesale — see the package approximation note).
func (a *analysis) assignTo(lhs ast.Expr, st taintState, m Mask, record bool) {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		if obj := a.lhsObject(lhs); obj != nil {
			if isErrorType(obj.Type()) {
				m = 0
			}
			st[obj] = m
		}
	case *ast.StarExpr:
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			if obj := a.info.Uses[id]; obj != nil {
				if idx, isParam := a.params[obj]; isParam {
					if record && idx < len(a.sum.ParamOut) {
						a.sum.ParamOut[idx] |= m
					}
					return
				}
				// Writing through a local pointer taints its pointee
				// object when the pointer was taken from a local.
				st[obj] |= m
			}
		}
	}
}

// lhsObject resolves an identifier target to its object.
func (a *analysis) lhsObject(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := a.info.Defs[id]; obj != nil {
		return obj
	}
	return a.info.Uses[id]
}

// setObj assigns mask m to the object behind expression e (used for
// range bindings).
func (a *analysis) setObj(e ast.Expr, st taintState, m Mask) {
	if obj := a.lhsObject(e); obj != nil {
		st[obj] = m
	}
}

// setDef assigns mask m to a declared name.
func (a *analysis) setDef(name *ast.Ident, st taintState, m Mask) {
	if obj := a.info.Defs[name]; obj != nil && !isErrorType(obj.Type()) {
		st[obj] = m
	}
}

// recordReturn merges the return expressions' masks into the summary.
func (a *analysis) recordReturn(ret *ast.ReturnStmt, st taintState) {
	if len(ret.Results) == 0 {
		// Bare return: named results carry their current masks.
		for i, obj := range a.results {
			if obj != nil && i < len(a.sum.Results) {
				a.sum.Results[i] |= st[obj]
			}
		}
		return
	}
	if len(ret.Results) == 1 && len(a.sum.Results) > 1 {
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			masks := a.resultMasks(call, st, len(a.sum.Results))
			for i := range a.sum.Results {
				a.sum.Results[i] |= masks[i]
			}
			return
		}
	}
	for i, e := range ret.Results {
		if i < len(a.sum.Results) {
			a.sum.Results[i] |= a.exprMask(e, st)
		}
	}
}

// sanitizeCompared clears taint from objects mentioned in ordered
// comparisons anywhere in the node — the bounds-check idiom. The
// comparison lives at a definite program point, so every block it
// dominates sees the cleared state; paths that bypass it keep theirs.
func (a *analysis) sanitizeCompared(n ast.Node, st taintState) {
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		be, ok := sub.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			a.clearIdents(be.X, st)
			a.clearIdents(be.Y, st)
		}
		return true
	})
}

// clearIdents drops taint from every identifier mentioned in e.
func (a *analysis) clearIdents(e ast.Expr, st taintState) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := a.info.Uses[id]; obj != nil {
				delete(st, obj)
			}
		}
		return true
	})
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
