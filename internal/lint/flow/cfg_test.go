package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// parseBody parses a snippet containing exactly one function named f
// and returns its body.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\n\nfunc f(c bool, n int, ch chan int) {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parsing snippet: %v\n%s", err, src)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return fd.Body
		}
	}
	t.Fatal("no func f in snippet")
	return nil
}

func blocksOf(g *Graph, kind string) []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

func oneBlock(t *testing.T, g *Graph, kind string) *Block {
	t.Helper()
	bs := blocksOf(g, kind)
	if len(bs) != 1 {
		t.Fatalf("want exactly one %q block, got %d", kind, len(bs))
	}
	return bs[0]
}

func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

// markClassifier recognizes mark("e") calls and emits the literal as
// the event name.
func markClassifier(n ast.Node) []string {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "mark" || len(call.Args) != 1 {
		return nil
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok {
		return nil
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return nil
	}
	return []string{s}
}

func TestCFGIfElse(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	mark("a")
	if c {
		mark("then")
	} else {
		mark("else")
	}
	mark("after")
`))
	then := oneBlock(t, g, "if.then")
	els := oneBlock(t, g, "if.else")
	join := oneBlock(t, g, "if.join")
	if !hasEdge(g.Entry, then) || !hasEdge(g.Entry, els) {
		t.Errorf("condition block does not branch to both arms")
	}
	if !hasEdge(then, join) || !hasEdge(els, join) {
		t.Errorf("arms do not merge at the join")
	}
	if !hasEdge(join, g.Exit) {
		t.Errorf("join does not fall through to exit")
	}
	if hasEdge(g.Entry, join) {
		t.Errorf("two-armed if must not edge condition directly to join")
	}
}

func TestCFGIfWithoutElseEdgesCondToJoin(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	if c {
		mark("then")
	}
	mark("after")
`))
	join := oneBlock(t, g, "if.join")
	if !hasEdge(g.Entry, join) {
		t.Errorf("else-less if needs the cond→join fall-through edge")
	}
}

func TestCFGIfBothArmsReturn(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	if c {
		return
	} else {
		panic("boom")
	}
`))
	join := oneBlock(t, g, "if.join")
	if len(join.Preds) != 0 {
		t.Errorf("join after return/panic arms should be unreachable, has %d preds", len(join.Preds))
	}
	then := oneBlock(t, g, "if.then")
	els := oneBlock(t, g, "if.else")
	if !hasEdge(then, g.Exit) || !hasEdge(els, g.Exit) {
		t.Errorf("return and panic must edge to exit")
	}
}

func TestCFGForLoop(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	for i := 0; i < n; i++ {
		if c {
			break
		}
		if i == 2 {
			continue
		}
		mark("body")
	}
	mark("after")
`))
	head := oneBlock(t, g, "for.head")
	body := oneBlock(t, g, "for.body")
	post := oneBlock(t, g, "for.post")
	join := oneBlock(t, g, "for.join")
	if !hasEdge(head, body) || !hasEdge(head, join) {
		t.Errorf("loop head must branch to body and join")
	}
	if !hasEdge(post, head) {
		t.Errorf("post block must loop back to head")
	}
	foundBreak, foundContinue := false, false
	for _, b := range blocksOf(g, "if.then") {
		if hasEdge(b, join) {
			foundBreak = true
		}
		if hasEdge(b, post) {
			foundContinue = true
		}
	}
	if !foundBreak {
		t.Errorf("break does not edge to the loop join")
	}
	if !foundContinue {
		t.Errorf("continue does not edge to the post block")
	}
}

func TestCFGInfiniteLoopHasNoJoinPath(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	for {
		mark("spin")
	}
`))
	join := oneBlock(t, g, "for.join")
	if len(join.Preds) != 0 {
		t.Errorf("for{} without break must leave the join unreachable")
	}
}

func TestCFGSwitch(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	switch n {
	case 1:
		mark("one")
		fallthrough
	case 2:
		mark("two")
	}
	mark("after")
`))
	cases := blocksOf(g, "case")
	if len(cases) != 2 {
		t.Fatalf("want 2 case blocks, got %d", len(cases))
	}
	join := oneBlock(t, g, "switch.join")
	if !hasEdge(cases[0], cases[1]) {
		t.Errorf("fallthrough does not edge to the next case")
	}
	if !hasEdge(g.Entry, join) {
		t.Errorf("switch without default needs the zero-match edge to join")
	}
	if !hasEdge(cases[1], join) {
		t.Errorf("final case does not reach the join")
	}
}

func TestCFGSwitchWithDefaultCoversAllPaths(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	switch n {
	case 1:
		mark("one")
	default:
		mark("other")
	}
`))
	join := oneBlock(t, g, "switch.join")
	if hasEdge(g.Entry, join) {
		t.Errorf("switch with default must not edge head directly to join")
	}
}

func TestCFGSelect(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	select {
	case v := <-ch:
		mark("recv")
		_ = v
	case ch <- n:
		mark("send")
	}
	mark("after")
`))
	cases := blocksOf(g, "select.case")
	if len(cases) != 2 {
		t.Fatalf("want 2 select case blocks, got %d", len(cases))
	}
	join := oneBlock(t, g, "select.join")
	for i, cb := range cases {
		if len(cb.Nodes) == 0 {
			t.Errorf("select case %d has no comm node", i)
		}
		if !hasEdge(cb, join) {
			t.Errorf("select case %d does not reach the join", i)
		}
	}
	if hasEdge(g.Entry, join) {
		t.Errorf("blocking select must not edge head directly to join")
	}
}

func TestCFGDeferRecorded(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	defer mark("cleanup")
	mark("work")
`))
	if len(g.Defers) != 1 {
		t.Fatalf("want 1 recorded defer, got %d", len(g.Defers))
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g := BuildCFG(parseBody(t, `
outer:
	for {
		for {
			if c {
				break outer
			}
		}
	}
	mark("after")
`))
	joins := blocksOf(g, "for.join")
	if len(joins) != 2 {
		t.Fatalf("want 2 loop joins, got %d", len(joins))
	}
	// The outer join (created first) must be reachable via the labeled
	// break; the inner one must not.
	if len(joins[0].Preds) == 0 {
		t.Errorf("break outer does not reach the outer loop join")
	}
	if len(joins[1].Preds) != 0 {
		t.Errorf("inner loop join should be unreachable, has %d preds", len(joins[1].Preds))
	}
}

// TestOnEveryPathToDiamond asks the diamond what has happened on every
// path into a point: what precedes the branch, and what comes earlier
// in the point's own block, has; what either arm does has not, and one
// arm's events never precede the other's.
func TestOnEveryPathToDiamond(t *testing.T) {
	body := parseBody(t, `
	mark("a")
	if c {
		mark("then")
	} else {
		mark("else")
	}
	mark("b")
	defer mark("z")
	mark("after")
`)
	m := SolveMust(BuildCFG(body), markClassifier)
	after := findMark(t, body, "after")
	for _, ev := range []string{"a", "b"} {
		if !m.OnEveryPathTo(after, ev) {
			t.Errorf("%s runs before the join's last node on every path but was not proven", ev)
		}
	}
	for _, ev := range []string{"then", "else", "after", "z"} {
		if m.OnEveryPathTo(after, ev) {
			t.Errorf("%s was proven to precede the join's last node", ev)
		}
	}
	then, els := findMark(t, body, "then"), findMark(t, body, "else")
	if !m.OnEveryPathTo(then, "a") || !m.OnEveryPathTo(els, "a") {
		t.Errorf("a precedes both arms")
	}
	if m.OnEveryPathTo(then, "else") || m.OnEveryPathTo(els, "then") {
		t.Errorf("one arm's event was proven to precede the other arm")
	}
}

// TestSolveMustDiamondWithLoop is the synthetic diamond-with-loop
// convergence fixture: one arm returns early, the surviving arm runs a
// loop (zero or more iterations) before a common tail.
func TestSolveMustDiamondWithLoop(t *testing.T) {
	body := parseBody(t, `
	mark("a")
	if c {
		mark("b")
	} else {
		mark("c")
		return
	}
	for i := 0; i < n; i++ {
		mark("d")
	}
	mark("e")
`)
	g := BuildCFG(body)
	m := SolveMust(g, markClassifier)

	if !m.OnEveryPath("a") {
		t.Errorf("a occurs on every path but was not proven")
	}
	for _, ev := range []string{"b", "c", "d", "e"} {
		if m.OnEveryPath(ev) {
			t.Errorf("%s does not occur on every path but was proven", ev)
		}
	}
	markB := findMark(t, body, "b")
	if !m.OnEveryPathFrom(markB, "e") {
		t.Errorf("e must follow b on every path")
	}
	if m.OnEveryPathFrom(markB, "d") {
		t.Errorf("d is loop-conditional and must not be proven after b")
	}
	markA := findMark(t, body, "a")
	if m.OnEveryPathFrom(markA, "e") {
		t.Errorf("e must not be proven after a: the else arm returns first")
	}
}

// TestSolveMustDefer checks that deferred events count on every path
// from their registration point, including paths that branch later.
func TestSolveMustDefer(t *testing.T) {
	body := parseBody(t, `
	defer mark("z")
	mark("t")
	if c {
		return
	}
	mark("tail")
`)
	g := BuildCFG(body)
	m := SolveMust(g, markClassifier)
	if !m.OnEveryPath("z") {
		t.Errorf("deferred z runs on every path but was not proven")
	}
	markT := findMark(t, body, "t")
	if !m.OnEveryPathFrom(markT, "z") {
		t.Errorf("defer registered before t must satisfy the from-t query")
	}
	if m.OnEveryPathFrom(markT, "tail") {
		t.Errorf("tail is branch-conditional and must not be proven after t")
	}
}

// TestSolveMustDeferredClosure checks events inside a deferred closure
// body are credited (a deferred closure runs whole at exit).
func TestSolveMustDeferredClosure(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	defer func() {
		mark("cleanup")
	}()
	if c {
		return
	}
	mark("work")
`))
	m := SolveMust(g, markClassifier)
	if !m.OnEveryPath("cleanup") {
		t.Errorf("deferred closure event not proven on every path")
	}
}

// TestSolveMustIgnoresGoroutineBodies checks a spawned goroutine's
// events do not leak into the spawning function's facts.
func TestSolveMustIgnoresGoroutineBodies(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	go func() {
		mark("inner")
	}()
	mark("outer")
`))
	m := SolveMust(g, markClassifier)
	if m.OnEveryPath("inner") {
		t.Errorf("goroutine-body event wrongly credited to the spawner")
	}
	if !m.OnEveryPath("outer") {
		t.Errorf("spawner's own event not proven")
	}
}

func findMark(t *testing.T, body *ast.BlockStmt, event string) ast.Node {
	t.Helper()
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if evs := markClassifier(call); len(evs) == 1 && evs[0] == event {
			found = call
			return false
		}
		return true
	})
	if found == nil {
		t.Fatalf("no mark(%q) in snippet", event)
	}
	return found
}

// TestSolveMustTerminatesOnIrreducibleFlow guards solver convergence on
// goto-made loops (irreducible control flow must still reach fixpoint).
func TestSolveMustTerminatesOnIrreducibleFlow(t *testing.T) {
	g := BuildCFG(parseBody(t, `
	if c {
		goto second
	}
first:
	mark("a")
	goto done
second:
	mark("b")
	if n > 0 {
		goto first
	}
done:
	mark("tail")
`))
	m := SolveMust(g, markClassifier)
	if !m.OnEveryPath("tail") {
		t.Errorf("tail runs before every exit but was not proven")
	}
	if m.OnEveryPath("a") || m.OnEveryPath("b") {
		t.Errorf("branch-dependent marks must not be proven on every path")
	}
	if !strings.Contains(blocksSummary(g), "label.done") {
		t.Errorf("labels did not produce label blocks: %s", blocksSummary(g))
	}
}

func blocksSummary(g *Graph) string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		sb.WriteString(b.Kind)
		sb.WriteByte(' ')
	}
	return sb.String()
}
