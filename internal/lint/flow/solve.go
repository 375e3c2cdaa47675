package flow

import (
	"go/ast"
	"go/types"
	"maps"
)

// Problem is one dataflow problem over a function's Graph. S is the
// fact carried along the edges (a set of events, of held mutexes).
type Problem[S any] struct {
	// Backward solves against the edges: Boundary holds at Exit and a
	// block's input is the meet of its successors' outputs.
	Backward bool
	// Boundary is the state at Entry (at Exit when Backward).
	Boundary S
	// Transfer maps the state at a block's input to the state at its
	// output. It must not modify in.
	Transfer func(b *Block, in S) S
	// Meet combines the states of two edges into a block without
	// modifying either: intersection for a must-problem, union for a
	// may-problem.
	Meet func(a, b S) S
	// Equal reports whether two states are the same fact; the solve is
	// done when no block's output changes.
	Equal func(a, b S) bool
}

// Solve runs p to its fixpoint over g and returns the input state of
// every block the boundary reaches (in flow direction: the state before
// a block's first node, or after its last when Backward).
//
// An edge whose source has not been reached yet is left out of the
// meet. Leaving it out is the identity of intersection and of union
// alike, so must-problems converge from above and may-problems from
// below in this one loop. A block no edge ever reaches — dead code, or
// for a backward problem a loop that never exits — gets no state: no
// path constrains it, and each caller says what that means for its
// fact.
func Solve[S any](g *Graph, p Problem[S]) map[*Block]S {
	start := g.Entry
	from := func(b *Block) []*Block { return b.Preds }
	to := func(b *Block) []*Block { return b.Succs }
	if p.Backward {
		start, from, to = g.Exit, to, from
	}
	in := make(map[*Block]S, len(g.Blocks))
	out := make(map[*Block]S, len(g.Blocks))
	work := []*Block{start}
	queued := map[*Block]bool{start: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		st, have := p.Boundary, b == start
		for _, e := range from(b) {
			o, reached := out[e]
			switch {
			case !reached:
			case have:
				st = p.Meet(st, o)
			default:
				st, have = o, true
			}
		}
		in[b] = st
		next := p.Transfer(b, st)
		if old, ok := out[b]; ok && p.Equal(old, next) {
			continue
		}
		out[b] = next
		for _, s := range to(b) {
			if !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}
	return in
}

// set is a finite set of events, the fact of every must-problem here.
type set[E comparable] map[E]bool

func (s set[E]) clone() set[E] {
	out := make(set[E], len(s))
	for e := range s {
		out[e] = true
	}
	return out
}

// intersection is the meet of a must-problem.
func intersection[E comparable](a, b set[E]) set[E] {
	out := make(set[E])
	for e := range a {
		if b[e] {
			out[e] = true
		}
	}
	return out
}

// nodeEvents splits one block node's events into those that occur when
// the node executes (imm) and those a defer registers to occur at
// function exit (def).
type nodeEvents[E comparable] struct {
	imm, def set[E]
}

// MustFacts is the result of the "must happen on every path" analysis
// of one function graph for one family of events: three
// intersection-meet instances of Solve, with deferred events credited
// at their registration points (a registered defer runs on every exit
// from that point on, panics included).
type MustFacts[E comparable] struct {
	g      *Graph
	events map[*Block][]nodeEvents[E]
	// universe is every event the classifier produced anywhere: the top
	// of the lattice, which a block no path reaches keeps.
	universe set[E]
	// toExit[b] holds the events guaranteed on every path from the end
	// of b to Exit (backward).
	toExit map[*Block]set[E]
	// defIn[b] holds the deferred events registered on every path from
	// Entry to the start of b (forward).
	defIn map[*Block]set[E]
	// before[b] holds the events that occurred on every path from Entry
	// to the start of b (forward).
	before map[*Block]set[E]
}

// SolveMust runs the must-happen analysis of classify's events over g.
// classify maps one AST node to the events it generates; it is applied
// to every sub-node of every block node (not descending into nested
// function literals or go statements, whose bodies run under their own
// control flow), so it only ever inspects a single node at a time.
func SolveMust[E comparable](g *Graph, classify func(ast.Node) []E) *MustFacts[E] {
	m := &MustFacts[E]{
		g:        g,
		events:   make(map[*Block][]nodeEvents[E], len(g.Blocks)),
		universe: make(set[E]),
	}
	for _, blk := range g.Blocks {
		evs := make([]nodeEvents[E], len(blk.Nodes))
		for i, n := range blk.Nodes {
			evs[i] = eventsOf(n, classify)
			for e := range evs[i].imm {
				m.universe[e] = true
			}
			for e := range evs[i].def {
				m.universe[e] = true
			}
		}
		m.events[blk] = evs
	}
	const backward, forward = true, false
	m.toExit = m.solve(backward, true, true)
	m.defIn = m.solve(forward, false, true)
	m.before = m.solve(forward, true, false)
	return m
}

// solve accumulates the chosen kinds of event along every path, in the
// chosen direction, meeting by intersection.
func (m *MustFacts[E]) solve(backward, imm, def bool) map[*Block]set[E] {
	return Solve(m.g, Problem[set[E]]{
		Backward: backward,
		Boundary: set[E]{},
		Transfer: func(b *Block, in set[E]) set[E] {
			out := in.clone()
			for _, ev := range m.events[b] {
				if imm {
					for e := range ev.imm {
						out[e] = true
					}
				}
				if def {
					for e := range ev.def {
						out[e] = true
					}
				}
			}
			return out
		},
		Meet:  intersection[E],
		Equal: maps.Equal[set[E], set[E]],
	})
}

// eventsOf collects a block node's events, separating deferred ones.
// The walk prunes nested function literals and go statements (their
// bodies execute under separate control flow) except under a defer,
// where a deferred closure's whole body runs at function exit.
func eventsOf[E comparable](n ast.Node, classify func(ast.Node) []E) nodeEvents[E] {
	ev := nodeEvents[E]{imm: make(set[E]), def: make(set[E])}
	var walk func(root ast.Node, deferred bool)
	walk = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(sub ast.Node) bool {
			if sub == nil {
				return false
			}
			into := ev.imm
			if deferred {
				into = ev.def
			}
			switch sub := sub.(type) {
			case *ast.DeferStmt:
				if sub != root {
					walk(sub.Call, true)
					return false
				}
			case *ast.GoStmt:
				for _, e := range classify(sub) {
					into[e] = true
				}
				return false
			case *ast.FuncLit, *ast.BlockStmt:
				// Nested bodies belong to other blocks (or other
				// functions); a deferred subtree runs whole at exit.
				if !deferred {
					return false
				}
			}
			for _, e := range classify(sub) {
				into[e] = true
			}
			return true
		})
	}
	if d, ok := n.(*ast.DeferStmt); ok {
		walk(d.Call, true)
	} else {
		walk(n, false)
	}
	return ev
}

// holds reports whether event is in blk's solved state. A block the
// solve never reached keeps the top of the lattice: every event the
// body produces holds there vacuously, one it never produces does not.
func (m *MustFacts[E]) holds(states map[*Block]set[E], blk *Block, event E) bool {
	if st, reached := states[blk]; reached {
		return st[event]
	}
	return m.universe[event]
}

// after reports whether event is guaranteed on every path from just
// past node idx of blk to Exit.
func (m *MustFacts[E]) after(blk *Block, idx int, event E) bool {
	evs := m.events[blk]
	for j := idx + 1; j < len(evs); j++ {
		if evs[j].imm[event] || evs[j].def[event] {
			return true
		}
	}
	return m.holds(m.toExit, blk, event)
}

// OnEveryPath reports whether event occurs — or a defer producing it
// is registered — on every path from Entry to Exit.
func (m *MustFacts[E]) OnEveryPath(event E) bool {
	return m.after(m.g.Entry, -1, event)
}

// OnEveryPathFrom reports whether event is guaranteed on every path
// from the trigger node to Exit: it occurs later on all paths, or a
// defer producing it is registered before the trigger (and thus runs
// at every subsequent exit). A trigger the graph does not contain
// reports true — the caller should analyze that body with its own
// graph.
func (m *MustFacts[E]) OnEveryPathFrom(trigger ast.Node, event E) bool {
	blk, idx := locate(m.g, trigger)
	if blk == nil {
		return true
	}
	for _, ev := range m.events[blk][:idx+1] {
		if ev.def[event] {
			return true
		}
	}
	return m.holds(m.defIn, blk, event) || m.after(blk, idx, event)
}

// OnEveryPathTo reports whether event has occurred on every path from
// Entry to the point node: in an earlier node of its block, or on every
// path into the block. Deferred events have not run yet and do not
// count. A point the graph does not contain reports false.
func (m *MustFacts[E]) OnEveryPathTo(point ast.Node, event E) bool {
	blk, idx := locate(m.g, point)
	if blk == nil {
		return false
	}
	for _, ev := range m.events[blk][:idx] {
		if ev.imm[event] {
			return true
		}
	}
	return m.holds(m.before, blk, event)
}

// locate finds the block node whose source extent contains n. A
// RangeStmt node stands for its header only: its body is decomposed
// into further blocks, whose nodes own the positions inside it.
func locate(g *Graph, n ast.Node) (*Block, int) {
	for _, blk := range g.Blocks {
		for i, node := range blk.Nodes {
			end := node.End()
			if r, ok := node.(*ast.RangeStmt); ok {
				end = r.Body.Lbrace
			}
			if node.Pos() <= n.Pos() && n.End() <= end {
				return blk, i
			}
		}
	}
	return nil, 0
}

// Done is the one event an EveryPath analysis tracks.
type Done struct{}

// EveryPath answers "does this body do it on every path to its exit"
// for one kind of act: a node the caller recognizes directly, or a call
// to a declared function whose own body does it on every path. Callee
// verdicts reach two calls deep and are memoized for the run.
type EveryPath struct {
	prog *Program
	here func(*types.Info, ast.Node) bool
	// callee[f] is f's verdict; while f is being computed it reads false,
	// which is what stops a recursive cycle.
	callee map[*types.Func]bool
}

// NewEveryPath prepares the analysis of the act here recognizes.
func NewEveryPath(prog *Program, here func(*types.Info, ast.Node) bool) *EveryPath {
	return &EveryPath{prog: prog, here: here, callee: make(map[*types.Func]bool)}
}

// Solve runs the must-happen analysis of the act over one body whose
// nodes are typed by info.
func (e *EveryPath) Solve(info *types.Info, body *ast.BlockStmt) *MustFacts[Done] {
	return e.solve(info, body, 0)
}

func (e *EveryPath) solve(info *types.Info, body *ast.BlockStmt, depth int) *MustFacts[Done] {
	return SolveMust(BuildCFG(body), func(n ast.Node) []Done {
		if e.here(info, n) {
			return []Done{{}}
		}
		if call, ok := n.(*ast.CallExpr); ok && e.calleeDoes(info, call, depth) {
			return []Done{{}}
		}
		return nil
	})
}

func (e *EveryPath) calleeDoes(info *types.Info, call *ast.CallExpr, depth int) bool {
	if depth >= 2 {
		return false
	}
	callee := CalleeOf(info, call)
	if callee == nil {
		return false
	}
	if does, known := e.callee[callee]; known {
		return does
	}
	fi := e.prog.Funcs[callee]
	if fi == nil {
		return false
	}
	e.callee[callee] = false
	does := e.solve(fi.Pkg.Info, fi.Decl.Body, depth+1).OnEveryPath(Done{})
	e.callee[callee] = does
	return does
}
