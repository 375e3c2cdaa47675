package flow

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// taintProgram type-checks one source string into a Program. Sources
// declare bodyless functions (uvarint, ...) so the name-based rules
// apply exactly as they do for the standard library.
func taintProgram(t *testing.T, src string) *Program {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "taint_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	pkg, err := conf.Check("tainttest", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pi := &PackageInfo{Path: "tainttest", Fset: fset, Files: []*ast.File{f}, Types: pkg, Info: info}
	return BuildProgram([]*PackageInfo{pi})
}

// findingStrings renders findings as "kind|expr|path" for comparison.
func findingStrings(taint *Taint) []string {
	var out []string
	for _, f := range taint.Findings() {
		out = append(out, fmt.Sprintf("%s|%s|%s", f.Kind, f.Expr, f.Path))
	}
	return out
}

func wantFindings(t *testing.T, taint *Taint, want ...string) {
	t.Helper()
	got := findingStrings(taint)
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

const sourceDecl = `func uvarint(b []byte) (uint64, int)
`

func TestTaintSourceToMakeLocal(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func f(b []byte) []byte {
	n, _ := uvarint(b)
	return make([]byte, n)
}`)
	wantFindings(t, BuildTaint(p), "make size|n|")
}

// TestSourceBelowEmptyStateReachesLaterBlock: a function with no
// parameters enters with the empty state, and the source sits in a
// block whose own input is empty too. The taint must still cross the
// next join — a block is solved because an edge reaches it, not because
// the state on that edge is non-empty.
func TestSourceBelowEmptyStateReachesLaterBlock(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
var wire []byte

func ready() bool

func f() []byte {
	if !ready() {
		return nil
	}
	n, _ := uvarint(wire)
	if ready() {
		return nil
	}
	return make([]byte, n)
}`)
	wantFindings(t, BuildTaint(p), "make size|n|")
}

func TestComparisonSanitizes(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func f(b []byte) []byte {
	n, _ := uvarint(b)
	if n > 64 {
		return nil
	}
	return make([]byte, n)
}`)
	wantFindings(t, BuildTaint(p))
}

func TestGuardOnOnePathDoesNotSanitize(t *testing.T) {
	// The bounds check runs only when fast is set; the union-meet at
	// the join keeps the unguarded path's taint alive.
	p := taintProgram(t, `package p
`+sourceDecl+`
func f(b []byte, fast bool) []byte {
	n, _ := uvarint(b)
	if fast {
		if n > 64 {
			return nil
		}
	}
	return make([]byte, n)
}`)
	wantFindings(t, BuildTaint(p), "make size|n|")
}

func TestSanitizerTwoCallsDeepComposes(t *testing.T) {
	// clamp bounds its input, via forwards to clamp: via's result
	// summary is clean, so the top-level make is fine.
	p := taintProgram(t, `package p
`+sourceDecl+`
func clamp(n uint64) uint64 {
	if n > 256 {
		return 256
	}
	return n
}

func via(n uint64) uint64 { return clamp(n) }

func f(b []byte) []byte {
	n, _ := uvarint(b)
	return make([]byte, via(n))
}`)
	wantFindings(t, BuildTaint(p))
}

func TestResultSummaryPropagates(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func id(n uint64) uint64 { return n }

func f(b []byte) []byte {
	n, _ := uvarint(b)
	return make([]byte, id(n))
}`)
	wantFindings(t, BuildTaint(p), "make size|id(n)|")
}

func TestParamSinkReportedAtCallSite(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func alloc(n uint64) []byte { return make([]byte, n) }

func mid(n uint64) []byte { return alloc(n) }

func f(b []byte) []byte {
	n, _ := uvarint(b)
	return mid(n)
}`)
	wantFindings(t, BuildTaint(p), "make size|n|mid -> alloc")
}

func TestPointerParamOutTaint(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func fill(b []byte, p *uint64) {
	n, _ := uvarint(b)
	*p = n
}

func f(b []byte) []byte {
	var n uint64
	fill(b, &n)
	return make([]byte, n)
}`)
	wantFindings(t, BuildTaint(p), "make size|n|")
}

func TestLoopBoundSink(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func f(b []byte) int {
	n, _ := uvarint(b)
	total := 0
	for i := uint64(0); i < n; i++ {
		total++
	}
	return total
}`)
	wantFindings(t, BuildTaint(p), "loop bound|n|")
}

func TestIndexSinkOnSequenceOnly(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func f(b []byte, tbl []int, m map[uint64]int) int {
	n, _ := uvarint(b)
	return tbl[n] + m[n]
}`)
	// Indexing the slice with n is a sink; the map lookup is not.
	wantFindings(t, BuildTaint(p), "index|n|")
}

func TestSliceBoundSink(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func f(b []byte) []byte {
	n, _ := uvarint(b)
	return b[:n]
}`)
	wantFindings(t, BuildTaint(p), "slice bound|n|")
}

func TestLenOfTaintedIsClean(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func grow(b []byte) []byte {
	return make([]byte, len(b)*2)
}`)
	taint := BuildTaint(p)
	wantFindings(t, taint)
	var fn *types.Func
	for f := range p.Funcs {
		if f.Name() == "grow" {
			fn = f
		}
	}
	sum := taint.SummaryOf(fn)
	if sum == nil || sum.Results[0] != 0 {
		t.Fatalf("grow result summary = %+v, want clean", sum)
	}
}

func TestSummaryRecordsParamPropagation(t *testing.T) {
	p := taintProgram(t, `package p
func head(b []byte) []byte { return b[:8] }`)
	taint := BuildTaint(p)
	var fn *types.Func
	for f := range p.Funcs {
		if f.Name() == "head" {
			fn = f
		}
	}
	sum := taint.SummaryOf(fn)
	if sum == nil || sum.Results[0] != ParamBit(0) {
		t.Fatalf("head result summary = %+v, want param 0", sum)
	}
}

func TestRecursionConverges(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func rec(n uint64, depth int) []byte {
	if depth == 0 {
		return make([]byte, n)
	}
	return rec(n, depth-1)
}

func f(b []byte) []byte {
	n, _ := uvarint(b)
	return rec(n, 3)
}`)
	// The sink lives inside the recursive callee; the source arrives at
	// the top-level call site.
	got := findingStrings(BuildTaint(p))
	if len(got) != 1 || !strings.HasPrefix(got[0], "make size|n|rec") {
		t.Fatalf("findings = %v, want one make-size flow through rec", got)
	}
}

func TestSleepSinkAndDurationClamp(t *testing.T) {
	p := taintProgram(t, `package p

import "time"
`+sourceDecl+`
func f(b []byte) {
	n, _ := uvarint(b)
	time.Sleep(time.Duration(n))
}

func g(b []byte) {
	n, _ := uvarint(b)
	d := time.Duration(n)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	time.Sleep(d)
}`)
	wantFindings(t, BuildTaint(p), "sleep/timeout duration|time.Duration(n)|")
}

func TestMinClampIsClean(t *testing.T) {
	p := taintProgram(t, `package p
`+sourceDecl+`
func f(b []byte) []byte {
	n, _ := uvarint(b)
	return make([]byte, min(n, 1024))
}`)
	wantFindings(t, BuildTaint(p))
}
