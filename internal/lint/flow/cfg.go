package flow

import (
	"go/ast"
	"go/token"
)

// Block is one basic block of a function's control-flow graph. Nodes
// holds the block's statements and controlling expressions in source
// order; nested control-flow statements are decomposed into further
// blocks and do not appear as Nodes (their conditions do). Analyzers
// scan Nodes with EventsOf-style walks that do not descend into nested
// function literals, because those bodies get their own graphs.
type Block struct {
	// Index is the block's position in Graph.Blocks.
	Index int
	// Kind labels the block's structural role ("entry", "if.then",
	// "for.head", ...) for tests and debugging.
	Kind string
	// Nodes are the block's statements and controlling expressions.
	Nodes []ast.Node
	// Succs are the control-flow successors.
	Succs []*Block
	// Preds are the control-flow predecessors.
	Preds []*Block
}

// Graph is the control-flow graph of one function body. Entry starts
// the body; every return, panic, and fall-off-the-end edge leads to
// Exit. Deferred statements are recorded in Defers and additionally
// appear as Nodes at their registration points.
type Graph struct {
	// Entry is the unique entry block.
	Entry *Block
	// Exit is the unique exit block (no Nodes).
	Exit *Block
	// Blocks lists every block, Entry and Exit included.
	Blocks []*Block
	// Defers are the body's defer statements in source order.
	Defers []*ast.DeferStmt
}

// BuildCFG constructs the control-flow graph of a function body
// (a *ast.FuncDecl or *ast.FuncLit Body). The construction is purely
// syntactic: if/for/range/switch/type-switch/select branch and merge,
// labeled break/continue/goto/fallthrough jump, return and explicit
// terminator calls (panic, os.Exit, log.Fatal*) edge to Exit. An
// infinite loop with no break has no edge to the code after it.
func BuildCFG(body *ast.BlockStmt) *Graph {
	b := &cfgBuilder{
		g:            &Graph{},
		labelBlocks:  make(map[string]*Block),
		pendingGotos: make(map[string][]*Block),
	}
	b.g.Entry = b.newBlock("entry")
	b.g.Exit = b.newBlock("exit")
	b.cur = b.g.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.g.Exit)
	}
	return b.g
}

// frame is one enclosing breakable construct (loop, switch, select).
type frame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

type cfgBuilder struct {
	g   *Graph
	cur *Block // nil while the walker is past a terminator

	frames        []*frame
	pendingLabel  string
	labelBlocks   map[string]*Block
	pendingGotos  map[string][]*Block
	fallthroughTo *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// block returns the current block, opening an unreachable one when the
// walker is past a terminator (dead code still gets blocks, with no
// predecessors, so its nodes remain inspectable).
func (b *cfgBuilder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) {
	blk := b.block()
	blk.Nodes = append(blk.Nodes, n)
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock opens a new block as the fall-through successor of the
// current one.
func (b *cfgBuilder) startBlock(kind string) *Block {
	nb := b.newBlock(kind)
	if b.cur != nil {
		b.edge(b.cur, nb)
	}
	b.cur = nb
	return nb
}

// seal enters join if anything reaches it, and marks the walker dead
// otherwise.
func (b *cfgBuilder) seal(join *Block) {
	if len(join.Preds) == 0 {
		b.cur = nil
	} else {
		b.cur = join
	}
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushFrame(label string, breakTo, continueTo *Block) {
	b.frames = append(b.frames, &frame{label: label, breakTo: breakTo, continueTo: continueTo})
}

func (b *cfgBuilder) popFrame() {
	b.frames = b.frames[:len(b.frames)-1]
}

// findFrame resolves the target of a break (needContinue false) or
// continue (true), honoring an optional label.
func (b *cfgBuilder) findFrame(label *ast.Ident, needContinue bool) *frame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if needContinue && f.continueTo == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		name := s.Label.Name
		lb := b.startBlock("label." + name)
		b.labelBlocks[name] = lb
		for _, src := range b.pendingGotos[name] {
			b.edge(src, lb)
		}
		delete(b.pendingGotos, name)
		b.pendingLabel = name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.block(), b.g.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.add(s)
	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminatorCall(call) {
			b.edge(b.block(), b.g.Exit)
			b.cur = nil
		}
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, nil, s.Body)
	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, nil, s.Assign, s.Body)
	case *ast.SelectStmt:
		b.selectStmt(s)
	default:
		// Assignments, declarations, sends, inc/dec, go statements.
		b.add(s)
	}
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok {
	case token.BREAK:
		if f := b.findFrame(s.Label, false); f != nil {
			b.edge(b.block(), f.breakTo)
		}
	case token.CONTINUE:
		if f := b.findFrame(s.Label, true); f != nil {
			b.edge(b.block(), f.continueTo)
		}
	case token.GOTO:
		name := s.Label.Name
		if lb := b.labelBlocks[name]; lb != nil {
			b.edge(b.block(), lb)
		} else {
			b.pendingGotos[name] = append(b.pendingGotos[name], b.block())
		}
	case token.FALLTHROUGH:
		if b.fallthroughTo != nil {
			b.edge(b.block(), b.fallthroughTo)
		}
	}
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.stmt(s.Init)
	b.add(s.Cond)
	cond := b.block()
	join := b.newBlock("if.join")
	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, join)
	}
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	} else {
		b.edge(cond, join)
	}
	b.seal(join)
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	b.stmt(s.Init)
	head := b.startBlock("for.head")
	if s.Cond != nil {
		b.add(s.Cond)
	}
	body := b.newBlock("for.body")
	post := b.newBlock("for.post")
	join := b.newBlock("for.join")
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, join)
	}
	b.pushFrame(label, join, post)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, post)
	}
	b.popFrame()
	b.cur = post
	b.stmt(s.Post)
	b.edge(b.block(), head)
	b.seal(join)
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.startBlock("range.head")
	// The RangeStmt itself is the head's node: its ranged expression is
	// visible to event walks, its body is decomposed below.
	b.add(s)
	body := b.newBlock("range.body")
	join := b.newBlock("range.join")
	b.edge(head, body)
	b.edge(head, join)
	b.pushFrame(label, join, head)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.popFrame()
	b.cur = join
}

func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	b.stmt(init)
	if tag != nil {
		b.add(tag)
	}
	if assign != nil {
		b.add(assign)
	}
	head := b.block()
	join := b.newBlock("switch.join")
	b.pushFrame(label, join, nil)
	savedFall := b.fallthroughTo
	var clauses []*ast.CaseClause
	var caseBlocks []*Block
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		cb := b.newBlock("case")
		caseBlocks = append(caseBlocks, cb)
		b.edge(head, cb)
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		// The zero-match path skips the whole switch.
		b.edge(head, join)
	}
	for i, cc := range clauses {
		b.cur = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		if i+1 < len(caseBlocks) {
			b.fallthroughTo = caseBlocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	}
	b.fallthroughTo = savedFall
	b.popFrame()
	b.seal(join)
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.block()
	join := b.newBlock("select.join")
	b.pushFrame(label, join, nil)
	for _, cl := range s.Body.List {
		cc := cl.(*ast.CommClause)
		cb := b.newBlock("select.case")
		b.edge(head, cb)
		b.cur = cb
		b.stmt(cc.Comm)
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, join)
		}
	}
	b.popFrame()
	// select{} blocks forever: join keeps no predecessors and the code
	// after it is unreachable.
	b.seal(join)
}

// isTerminatorCall recognizes calls that never return: panic,
// runtime.Goexit, os.Exit, and the log.Fatal family. The check is
// syntactic, matching the rest of the builder.
func isTerminatorCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch {
		case pkg.Name == "os" && fun.Sel.Name == "Exit":
			return true
		case pkg.Name == "runtime" && fun.Sel.Name == "Goexit":
			return true
		case pkg.Name == "log" && (fun.Sel.Name == "Fatal" ||
			fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln"):
			return true
		}
	}
	return false
}
