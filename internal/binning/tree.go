package binning

import "fmt"

// Tree is a static fanout-ary hierarchy of super-bins over a Scheme's
// leaf bins, following the multi-level bin-tree design of hierarchical
// bitmap indexing (arXiv 2108.13735): level 0 is the leaves, level l
// groups fanout nodes of level l-1, and the top level holds a single
// root. A node's shape is pure arithmetic over (level, index), so the
// tree stores no per-node state — callers attach payloads (such as
// OR-aggregated bitmaps) keyed by NodeRef.
type Tree struct {
	scheme *Scheme
	fanout int
	// width[l] is the node count at level l; width[0] == NumBins() and
	// width[len-1] == 1.
	width []int
}

// NodeRef addresses one tree node: Level 0 is the leaves, the highest
// level is the root.
type NodeRef struct {
	Level, Index int
}

// NewTree builds the super-bin hierarchy over the scheme's leaves.
// fanout must be at least 2; a single-bin scheme yields a one-node
// tree (the leaf is the root).
func NewTree(s *Scheme, fanout int) (*Tree, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("binning: tree fanout %d < 2", fanout)
	}
	width := []int{s.NumBins()}
	for width[len(width)-1] > 1 {
		w := (width[len(width)-1] + fanout - 1) / fanout
		width = append(width, w)
	}
	return &Tree{scheme: s, fanout: fanout, width: width}, nil
}

// Scheme returns the leaf binning scheme the tree is built over.
func (t *Tree) Scheme() *Scheme { return t.scheme }

// Fanout returns the tree arity.
func (t *Tree) Fanout() int { return t.fanout }

// NumLevels returns the level count (1 for a single-bin scheme).
func (t *Tree) NumLevels() int { return len(t.width) }

// LevelWidth returns the node count at level l.
func (t *Tree) LevelWidth(l int) int { return t.width[l] }

// NumNodes returns the total node count across all levels.
func (t *Tree) NumNodes() int {
	n := 0
	for _, w := range t.width {
		n += w
	}
	return n
}

// Root returns the top node.
func (t *Tree) Root() NodeRef { return NodeRef{Level: len(t.width) - 1, Index: 0} }

// Leaves returns the half-open leaf-bin range [lo, hi) a node covers.
func (t *Tree) Leaves(n NodeRef) (lo, hi int) {
	if n.Level < 0 || n.Level >= len(t.width) || n.Index < 0 || n.Index >= t.width[n.Level] {
		panic(fmt.Sprintf("binning: node %+v out of tree (levels %d)", n, len(t.width)))
	}
	span := 1
	for l := 0; l < n.Level; l++ {
		span *= t.fanout
	}
	lo = n.Index * span
	hi = lo + span
	if nb := t.scheme.NumBins(); hi > nb {
		hi = nb
	}
	return lo, hi
}

// Children returns the child index range [lo, hi) at level n.Level-1.
// The root of a one-level tree (and any leaf) has no children.
func (t *Tree) Children(n NodeRef) (lo, hi int) {
	if n.Level == 0 {
		return 0, 0
	}
	lo = n.Index * t.fanout
	hi = lo + t.fanout
	if w := t.width[n.Level-1]; hi > w {
		hi = w
	}
	return lo, hi
}

// Classify returns the node's alignment with vc, consistent with the
// leaf-level Scheme.Classify: a node is Aligned exactly when every leaf
// under it is, Disjoint when every leaf is, and Misaligned otherwise.
func (t *Tree) Classify(n NodeRef, vc ValueConstraint) Alignment {
	bl, bh := t.Leaves(n)
	lo, hi := t.scheme.bounds[bl], t.scheme.bounds[bh]
	return classifyInterval(lo, hi, bh == t.scheme.NumBins(), vc)
}

// Selection is the outcome of classifying the tree against a value
// constraint: the maximal fully-inside subtree roots (whose aggregated
// bitmaps answer the constraint wholesale), the boundary leaves that
// straddle it (and must be filtered point by point), and the pruning
// accounting. CoveredLeaves + PrunedLeaves + len(Boundary) always
// equals the scheme's bin count.
type Selection struct {
	// Inside holds the roots of maximal fully-aligned subtrees in
	// ascending leaf order; single aligned leaves appear as level-0
	// refs.
	Inside []NodeRef
	// Boundary holds the misaligned leaf bins in ascending order.
	Boundary []int
	// PrunedLeaves counts leaves under subtrees ruled out without
	// descending into them (plus disjoint leaves reached directly).
	PrunedLeaves int
	// CoveredLeaves counts leaves under the Inside subtree roots.
	CoveredLeaves int
	// NodesVisited counts classification probes — the tree-walk cost.
	NodesVisited int
}

// Select classifies every subtree against vc, descending only into
// misaligned (boundary) nodes: fully-inside subtrees are recorded at
// their root without touching their leaves, fully-outside subtrees are
// pruned without touching anything, and only boundary leaves survive to
// the per-point filtering stage.
func (t *Tree) Select(vc ValueConstraint) Selection {
	var sel Selection
	var walk func(n NodeRef)
	walk = func(n NodeRef) {
		sel.NodesVisited++
		lo, hi := t.Leaves(n)
		switch t.Classify(n, vc) {
		case Disjoint:
			sel.PrunedLeaves += hi - lo
		case Aligned:
			sel.Inside = append(sel.Inside, n)
			sel.CoveredLeaves += hi - lo
		default: // Misaligned: descend, or emit the boundary leaf
			if n.Level == 0 {
				sel.Boundary = append(sel.Boundary, n.Index)
				return
			}
			cl, ch := t.Children(n)
			for c := cl; c < ch; c++ {
				walk(NodeRef{Level: n.Level - 1, Index: c})
			}
		}
	}
	walk(t.Root())
	return sel
}
