package flow

// taint_rules.go holds the expression evaluator and the source /
// propagator / sanitizer / sink tables of the taint engine. Computed
// summaries always take precedence; the name-based rules here cover
// callees whose bodies are outside the analyzed program (the standard
// library, bodyless fixture declarations).

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// exprMask evaluates the taint mask of expression e under state st.
func (a *analysis) exprMask(e ast.Expr, st taintState) Mask {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := a.info.Uses[e]; obj != nil {
			return st[obj]
		}
		return 0
	case *ast.BasicLit, *ast.FuncLit:
		return 0
	case *ast.UnaryExpr:
		return a.exprMask(e.X, st)
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ,
			token.LAND, token.LOR:
			return 0 // booleans carry no interesting taint
		}
		return a.exprMask(e.X, st) | a.exprMask(e.Y, st)
	case *ast.CallExpr:
		masks := a.resultMasks(e, st, 1)
		return masks[0]
	case *ast.SelectorExpr:
		return a.selectorMask(e, st)
	case *ast.IndexExpr:
		// An element of a tainted container is tainted.
		return a.exprMask(e.X, st)
	case *ast.SliceExpr:
		return a.exprMask(e.X, st)
	case *ast.StarExpr:
		return a.exprMask(e.X, st)
	case *ast.TypeAssertExpr:
		return a.exprMask(e.X, st)
	case *ast.CompositeLit:
		var m Mask
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= a.exprMask(kv.Value, st)
				continue
			}
			m |= a.exprMask(el, st)
		}
		return m
	}
	return 0
}

// selectorMask evaluates a field read or method value: data carried by
// an *http.Request or *http.Response is an untrusted source, a field
// of a *Wire struct is decoded network payload, and any other field
// read propagates its base's mask.
func (a *analysis) selectorMask(sel *ast.SelectorExpr, st taintState) Mask {
	if _, ok := a.info.Selections[sel]; !ok {
		// Package-qualified name (io.Discard, http.MethodPost, ...).
		return 0
	}
	if a.isHTTPDataField(sel) || a.isWireField(sel) {
		return SourceBit
	}
	return a.exprMask(sel.X, st)
}

// httpRequestFields and httpResponseFields are the attacker-controlled
// fields; Context, Close, StatusCode-adjacent plumbing stays clean.
var httpRequestFields = map[string]bool{
	"Body": true, "Header": true, "URL": true, "Form": true,
	"PostForm": true, "MultipartForm": true, "Trailer": true,
	"RemoteAddr": true, "RequestURI": true, "Host": true,
	"ContentLength": true,
}

var httpResponseFields = map[string]bool{
	"Body": true, "Header": true, "Trailer": true, "Status": true,
	"ContentLength": true,
}

// isHTTPDataField reports whether sel reads attacker-controlled data
// off an http.Request or http.Response value.
func (a *analysis) isHTTPDataField(sel *ast.SelectorExpr) bool {
	pkg, name := NamedType(a.info.TypeOf(sel.X))
	if pkg != "net/http" {
		return false
	}
	switch name {
	case "Request":
		return httpRequestFields[sel.Sel.Name]
	case "Response":
		return httpResponseFields[sel.Sel.Name]
	}
	return false
}

// isWireField reports whether sel reads a field of a wire-decoded
// struct (a named struct type whose name ends in "Wire").
func (a *analysis) isWireField(sel *ast.SelectorExpr) bool {
	s, ok := a.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	_, name := NamedType(s.Recv())
	return strings.HasSuffix(name, "Wire")
}

// resultMasks evaluates a call's result masks (n slots). Precedence:
// conversions, builtins, computed summaries, then name-based rules.
func (a *analysis) resultMasks(call *ast.CallExpr, st taintState, n int) []Mask {
	out := make([]Mask, n)
	if tv, ok := a.info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: time.Duration(n), uint64(n), ...
		if len(call.Args) == 1 {
			out[0] = a.exprMask(call.Args[0], st)
		}
		return out
	}
	if m, ok := a.builtinMask(call, st); ok {
		out[0] = m
		return out
	}
	callee := CalleeOf(a.info, call)
	if callee != nil {
		if sum := a.t.sums[callee]; sum != nil {
			argMasks := a.argMasks(call, callee, st)
			for i := range out {
				if i < len(sum.Results) {
					out[i] = instantiate(sum.Results[i], argMasks)
				}
			}
			return out
		}
		out[0] = a.namedRuleMask(call, callee, st)
		return out
	}
	// Dynamic call: a method on a tainted receiver yields tainted data
	// (url.Values.Get, bytes.Buffer.String via interfaces, ...).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := a.info.Selections[sel]; isSel {
			out[0] = a.exprMask(sel.X, st)
		}
	}
	return out
}

// builtinMask handles calls to builtins; ok is false for non-builtins.
// len and cap of a tainted container are clean (their magnitude is
// bounded by bytes actually received); min is clean when any argument
// is clean (the clamp idiom); max and append union their arguments.
func (a *analysis) builtinMask(call *ast.CallExpr, st taintState) (Mask, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return 0, false
	}
	if _, ok := a.info.Uses[id].(*types.Builtin); !ok {
		return 0, false
	}
	switch id.Name {
	case "len", "cap", "new", "make", "copy", "recover", "complex", "real", "imag":
		return 0, true
	case "min":
		var m Mask
		for _, arg := range call.Args {
			am := a.exprMask(arg, st)
			if am == 0 {
				return 0, true
			}
			m |= am
		}
		return m, true
	case "max", "append":
		var m Mask
		for _, arg := range call.Args {
			m |= a.exprMask(arg, st)
		}
		return m, true
	}
	return 0, true
}

// sourceNames is the wire-decode source family:
// the first result of these carries an attacker-chosen count.
var sourceNames = map[string]bool{
	"uvarint": true, "varint": true, "readuvarint": true, "readvarint": true,
}

// sanitizerNames are bounded-by-construction helpers: their results
// are clean no matter what flows in.
var sanitizerNames = map[string]bool{
	"limitreader": true, "maxbytesreader": true,
	"decodebytesmax": true, "uvarintmax": true,
}

// requestMethods are http.Request methods returning attacker data.
var requestMethods = map[string]bool{
	"FormValue": true, "PostFormValue": true, "Cookie": true,
	"Cookies": true, "Referer": true, "UserAgent": true, "BasicAuth": true,
}

// namedRuleMask is the name-based model for callees without bodies in
// the program (first result only; the rest default to clean).
func (a *analysis) namedRuleMask(call *ast.CallExpr, callee *types.Func, st taintState) Mask {
	name := callee.Name()
	lower := strings.ToLower(name)
	if sanitizerNames[lower] {
		return 0
	}
	if sourceNames[lower] {
		return SourceBit
	}
	pkg := ""
	if callee.Pkg() != nil {
		pkg = callee.Pkg().Path()
	}
	recvMask := Mask(0)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := a.info.Selections[sel]; isSel {
			recvMask = a.exprMask(sel.X, st)
			if p, n := NamedType(a.info.TypeOf(sel.X)); p == "net/http" && n == "Request" && requestMethods[name] {
				return SourceBit
			}
		}
	}
	orArgs := func() Mask {
		m := Mask(0)
		for _, arg := range call.Args {
			m |= a.exprMask(arg, st)
		}
		return m
	}
	arg0 := func() Mask {
		if len(call.Args) > 0 {
			return a.exprMask(call.Args[0], st)
		}
		return 0
	}
	switch pkg {
	case "encoding/json":
		if name == "NewDecoder" || name == "Marshal" || name == "MarshalIndent" {
			return arg0()
		}
	case "io":
		switch name {
		case "ReadAll", "ReadFull":
			return arg0() | recvMask
		}
	case "bufio":
		switch name {
		case "NewReader", "NewReaderSize", "NewScanner":
			return arg0()
		}
	case "bytes", "strings", "fmt":
		return orArgs() | recvMask
	case "strconv":
		return orArgs()
	case "time":
		if name == "ParseDuration" {
			return arg0()
		}
	case "encoding/binary":
		// binary.LittleEndian.Uint32(b) and friends.
		if strings.HasPrefix(name, "Uint") || name == "PutUvarint" || name == "PutVarint" {
			return arg0()
		}
	}
	// Default: a method on a tainted receiver propagates the receiver's
	// mask (Header.Get, Values.Get, Buffer.String, ...); plain functions
	// outside the tables are clean.
	return recvMask
}

// argMasks maps call-site argument masks onto callee parameter slots
// (receiver first, variadic overflow folded into the last slot).
func (a *analysis) argMasks(call *ast.CallExpr, callee *types.Func, st taintState) []Mask {
	sig := callee.Type().(*types.Signature)
	slots := sig.Params().Len()
	offset := 0
	if sig.Recv() != nil {
		slots++
		offset = 1
	}
	masks := make([]Mask, slots)
	if offset == 1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := a.info.Selections[sel]; isSel {
				masks[0] = a.exprMask(sel.X, st)
			}
		}
	}
	for i, arg := range call.Args {
		slot := offset + i
		if slot >= slots {
			slot = slots - 1 // variadic overflow
		}
		if slot >= 0 {
			masks[slot] |= a.exprMask(arg, st)
		}
	}
	return masks
}

// instantiate rewrites a callee-relative mask into the caller's frame:
// the source bit survives as-is, parameter bits become the masks of
// the arguments bound to them.
func instantiate(m Mask, argMasks []Mask) Mask {
	var out Mask
	if m.HasSource() {
		out |= SourceBit
	}
	for _, p := range m.paramIndices() {
		if p < len(argMasks) {
			out |= argMasks[p]
		}
	}
	return out
}

// scanSinks walks one block node: call side effects (decode fills,
// summary ParamOut writes) always apply; sink checks and summary
// ParamSinks/findings are collected only on the recording pass.
func (a *analysis) scanSinks(n ast.Node, blk *Block, st taintState, record bool) {
	ast.Inspect(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			a.visitCall(sub, st, record)
		case *ast.IndexExpr:
			if !record {
				return true
			}
			if m := a.exprMask(sub.Index, st); m != 0 && a.isSequence(sub.X) {
				a.recordSink(SinkIndex, sub.Index.Pos(), a.render(sub.Index), m, "")
			}
		case *ast.SliceExpr:
			if !record {
				return true
			}
			for _, bound := range []ast.Expr{sub.Low, sub.High, sub.Max} {
				if bound == nil {
					continue
				}
				if m := a.exprMask(bound, st); m != 0 {
					a.recordSink(SinkSliceBound, bound.Pos(), a.render(bound), m, "")
				}
			}
		case *ast.BinaryExpr:
			if !record || blk.Kind != "for.head" {
				return true
			}
			switch sub.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				for _, op := range []ast.Expr{sub.X, sub.Y} {
					if m := a.exprMask(op, st); m != 0 {
						a.recordSink(SinkLoopBound, op.Pos(), a.render(op), m, "")
					}
				}
			}
		}
		return true
	})
}

// visitCall applies one call's effects: make/sleep/label sinks, callee
// ParamSinks propagated to the caller's frame, and pointer fills.
func (a *analysis) visitCall(call *ast.CallExpr, st taintState, record bool) {
	if record {
		a.checkMakeSink(call, st)
	}
	callee := CalleeOf(a.info, call)
	if callee == nil {
		return
	}
	if record {
		// Named sinks (time.Sleep durations, obs label values) apply
		// whether or not the callee is summarized: the obs registry is
		// part of the analyzed program, but the sink is the call site.
		a.checkNamedSinks(call, callee, st)
	}
	if sum := a.t.sums[callee]; sum != nil {
		a.applySummaryCall(call, callee, sum, st, record)
		return
	}
	a.applyNamedFills(call, callee, st)
}

// checkMakeSink flags tainted length/capacity arguments of make().
func (a *analysis) checkMakeSink(call *ast.CallExpr, st taintState) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" {
		return
	}
	if _, ok := a.info.Uses[id].(*types.Builtin); !ok {
		return
	}
	for _, arg := range call.Args[1:] {
		if m := a.exprMask(arg, st); m != 0 {
			a.recordSink(SinkAlloc, arg.Pos(), a.render(arg), m, "")
		}
	}
}

// checkNamedSinks flags tainted durations reaching the time/context
// sleep family and tainted strings reaching metric labels or names.
func (a *analysis) checkNamedSinks(call *ast.CallExpr, callee *types.Func, st taintState) {
	pkg := ""
	if callee.Pkg() != nil {
		pkg = callee.Pkg().Path()
	}
	name := callee.Name()
	sinkArg := func(kind SinkKind, idx int) {
		if idx >= len(call.Args) {
			return
		}
		if m := a.exprMask(call.Args[idx], st); m != 0 {
			a.recordSink(kind, call.Args[idx].Pos(), a.render(call.Args[idx]), m, "")
		}
	}
	switch pkg {
	case "time":
		switch name {
		case "Sleep", "After", "Tick", "NewTimer", "NewTicker":
			sinkArg(SinkSleep, 0)
		}
	case "context":
		if name == "WithTimeout" {
			sinkArg(SinkSleep, 1)
		}
	default:
		if strings.HasSuffix(pkg, "internal/obs") {
			switch name {
			case "L":
				sinkArg(SinkLabel, 1)
			case "Counter", "Histogram", "CounterFunc", "GaugeFunc":
				sinkArg(SinkLabel, 0)
			}
		}
	}
}

// applyNamedFills models stdlib calls that write decoded data through
// pointer arguments: json Decode/Unmarshal and binary.Read.
func (a *analysis) applyNamedFills(call *ast.CallExpr, callee *types.Func, st taintState) {
	pkg := ""
	if callee.Pkg() != nil {
		pkg = callee.Pkg().Path()
	}
	switch pkg {
	case "encoding/json":
		switch callee.Name() {
		case "Decode":
			// (*json.Decoder).Decode(v): the decoder carries the
			// reader's mask; decoded data is additionally a source when
			// the reader is network data — which the reader mask
			// already encodes, so fill with the receiver mask.
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && len(call.Args) == 1 {
				a.fillPointer(call.Args[0], a.exprMask(sel.X, st), st)
			}
		case "Unmarshal":
			if len(call.Args) == 2 {
				a.fillPointer(call.Args[1], a.exprMask(call.Args[0], st), st)
			}
		}
	case "encoding/binary":
		if callee.Name() == "Read" && len(call.Args) == 3 {
			a.fillPointer(call.Args[2], a.exprMask(call.Args[0], st), st)
		}
	}
}

// applySummaryCall applies a summarized callee at a call site: result
// masks are handled by resultMasks; here the pointer-param out-taint
// is written back and the callee's parameter sinks are propagated.
func (a *analysis) applySummaryCall(call *ast.CallExpr, callee *types.Func, sum *Summary, st taintState, record bool) {
	argMasks := a.argMasks(call, callee, st)
	argExprs := a.argExprs(call, callee)
	for i, m := range sum.ParamOut {
		if m == 0 || i >= len(argExprs) || argExprs[i] == nil {
			continue
		}
		a.fillPointer(argExprs[i], instantiate(m, argMasks), st)
	}
	if !record {
		return
	}
	for i, refs := range sum.ParamSinks {
		if len(refs) == 0 || i >= len(argMasks) || argMasks[i] == 0 {
			continue
		}
		pos, rendered := call.Lparen, a.render(call.Fun)
		if i < len(argExprs) && argExprs[i] != nil {
			pos, rendered = argExprs[i].Pos(), a.render(argExprs[i])
		}
		for _, ref := range refs {
			path := joinSinkPath(shortFuncName(callee), ref.Path)
			if strings.Count(path, " -> ") >= maxSinkDepth {
				continue
			}
			a.recordSink(ref.Kind, pos, rendered, argMasks[i], path)
		}
	}
}

// argExprs mirrors argMasks with the argument expressions themselves
// (receiver first); overflow variadic slots keep the first expression.
func (a *analysis) argExprs(call *ast.CallExpr, callee *types.Func) []ast.Expr {
	sig := callee.Type().(*types.Signature)
	slots := sig.Params().Len()
	offset := 0
	if sig.Recv() != nil {
		slots++
		offset = 1
	}
	exprs := make([]ast.Expr, slots)
	if offset == 1 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := a.info.Selections[sel]; isSel {
				exprs[0] = sel.X
			}
		}
	}
	for i, arg := range call.Args {
		slot := offset + i
		if slot >= slots {
			break
		}
		exprs[slot] = arg
	}
	return exprs
}

// fillPointer writes mask m through a pointer-typed argument: &x
// taints x, a pointer parameter records ParamOut, a plain pointer
// variable taints its object.
func (a *analysis) fillPointer(arg ast.Expr, m Mask, st taintState) {
	if m == 0 {
		return
	}
	arg = ast.Unparen(arg)
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = ast.Unparen(u.X)
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return
	}
	obj := a.info.Uses[id]
	if obj == nil {
		obj = a.info.Defs[id]
	}
	if obj == nil || isErrorType(obj.Type()) {
		return
	}
	if idx, isParam := a.params[obj]; isParam {
		if idx < len(a.sum.ParamOut) {
			a.sum.ParamOut[idx] |= m
		}
		return
	}
	st[obj] |= m
}

// recordSink files one tainted-value-at-sink observation: a finding
// when the mask carries the source bit, a ParamSink entry for each
// parameter bit (so callers see the sink through the summary).
func (a *analysis) recordSink(kind SinkKind, pos token.Pos, expr string, m Mask, path string) {
	if m.HasSource() {
		a.findings = append(a.findings, Finding{Kind: kind, Pos: pos, Expr: expr, Path: path})
	}
	for _, p := range m.paramIndices() {
		if p >= len(a.sum.ParamSinks) || len(a.sum.ParamSinks[p]) >= maxSinkRefs {
			continue
		}
		// Dedupe on the ultimate sink (kind + position): recursion and
		// diamond call shapes reach the same sink along several paths.
		// The shortest path is the useful one, and keeping it (rather
		// than whichever a pass happened to record first) is what lets
		// summaries on a call cycle stop changing.
		ref := SinkRef{Kind: kind, Pos: pos, Expr: expr, Path: path}
		sinks := a.sum.ParamSinks[p]
		i := slices.IndexFunc(sinks, func(have SinkRef) bool { return have.Kind == kind && have.Pos == pos })
		switch {
		case i < 0:
			a.sum.ParamSinks[p] = append(sinks, ref)
		case len(path) < len(sinks[i].Path) || len(path) == len(sinks[i].Path) && path < sinks[i].Path:
			sinks[i] = ref
		}
	}
}

// isSequence reports whether e's type indexes positionally (slice,
// array, or string — a tainted map key is just a lookup).
func (a *analysis) isSequence(e ast.Expr) bool {
	tv, ok := a.info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.Underlying()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem().Underlying()
	}
	switch t := t.(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Basic:
		return t.Info()&types.IsString != 0
	}
	return false
}

// joinSinkPath prepends one call hop to a sink path.
func joinSinkPath(hop, rest string) string {
	if rest == "" {
		return hop
	}
	return hop + " -> " + rest
}

// shortFuncName renders fn as Recv.Name or Name for messages.
func shortFuncName(fn *types.Func) string {
	if recv := recvTypeName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}

// render pretty-prints an expression for diagnostics.
func (a *analysis) render(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, a.fi.Pkg.Fset, e); err != nil {
		return "<expr>"
	}
	s := buf.String()
	if len(s) > 40 {
		s = s[:37] + "..."
	}
	return s
}
