package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/grid"
	"mloc/internal/plod"
	"mloc/internal/query"
)

// task is one unit of query work: one (bin, unit) pair plus what must
// be done with it.
type task struct {
	bin  int
	unit int
	// needData: the unit's data pieces must be read (value retrieval,
	// or VC filtering in a misaligned bin).
	needData bool
	// filterVC: the unit's values must be checked against the VC
	// (misaligned bins only; aligned bins satisfy it by construction).
	filterVC bool
}

// plan is one access, compiled: every caller — a value or region query,
// a position fetch, Explain — builds one, and execute runs it or Explain
// folds over it, so what is printed is what would run. It holds what to
// visit (tasks, and the vindex nodes an index-only value plan answers
// from), how to decode it (level, pieces) and the point predicate: a
// point of a visited unit is emitted when it lies inside sc (inside one
// of cuts, when the request has row ranges), is set in positions and, in
// a filterVC task, has a value inside vc — a nil field does not
// constrain. Nothing per unit is materialised here beyond the task
// itself; extents are built at execution, into the rank's scratch.
type plan struct {
	// tasks are in column order: bin-major, storage order within a bin.
	// bins counts the bins that have at least one.
	tasks []task
	bins  int
	// nodes are the inside-subtree roots runNodes answers from the
	// vindex, in ascending leaf order; nodeBins counts the bins under
	// them.
	nodes    []binning.NodeRef
	nodeBins int
	// level is the PLoD level values are decoded at, pieces the number of
	// data pieces that takes per unit (its leading planes; one in floats
	// mode).
	level, pieces int

	sc *grid.Region
	// cuts[i] is sc (or the whole grid) cut to the request's i-th row
	// range, in ascending row order; nil without row ranges.
	cuts      []grid.Region
	vc        *binning.ValueConstraint
	positions *bitmap.Bitmap
	indexOnly bool
	// limit bounds the answer by the predicate alone: the volume the SC
	// and rows leave, or the number of positions.
	limit int64

	// aligned, misaligned and chunks are the selection's sizes, as
	// Explain reports them. pruned and covered are the tree walk's
	// accounting on an index-only value plan (zero on any other): bins
	// ruled out, and bins answered from the index alone, by node bitmaps
	// or by their own offsets.
	aligned, misaligned int
	chunks              int64
	pruned, covered     int
}

// binSel is one selected bin and whether its values need the VC check.
type binSel struct {
	bin      int
	filterVC bool
}

// planQuery compiles a request: bins by VC through the bin tree,
// chunks by SC, the request's constraints as the predicate.
func (s *Store) planQuery(req *query.Request) (*plan, error) {
	if err := req.Validate(s.meta.shape); err != nil {
		return nil, err
	}
	level := req.PLoDLevel
	if level == 0 {
		level = plod.MaxLevel
	}
	if s.meta.mode == ModeFloats && level != plod.MaxLevel {
		return nil, fmt.Errorf("core: store mode %q does not support PLoD level %d (use the planes/COL mode)",
			s.meta.mode, level)
	}
	p := s.newPlan(level)
	p.sc, p.vc, p.indexOnly = req.SC, req.VC, req.IndexOnly

	var sel []binSel
	if req.VC != nil {
		sel = s.selectBins(p, *req.VC)
	} else {
		sel = s.everyBin()
		p.aligned = len(sel)
	}
	switch {
	case req.Rows != nil:
		s.planUnits(p, sel, s.planRows(p, req.Rows), false)
	case req.SC == nil:
		s.planUnits(p, sel, nil, true)
	default:
		p.limit = req.SC.Elems()
		s.planUnits(p, sel, s.chunks.OverlappingChunks(*req.SC), false)
	}
	return p, nil
}

// selectBins walks the bin tree against vc and returns the selected
// bins in ascending order. A disjoint subtree is pruned and a boundary
// leaf is a bin the VC filters. An inside subtree becomes a node step
// when the vindex holds its bitmap and the plan is index-only; its
// leaves are otherwise aligned bins, exactly as on a store without a
// vindex.
func (s *Store) selectBins(p *plan, vc binning.ValueConstraint) []binSel {
	w := s.tree.Select(vc)
	p.aligned, p.misaligned = w.CoveredLeaves, len(w.Boundary)
	if p.indexOnly {
		p.pruned, p.covered = w.PrunedLeaves, w.CoveredLeaves
	}
	sel := make([]binSel, 0, w.CoveredLeaves+len(w.Boundary))
	for _, n := range w.Inside {
		lo, hi := s.tree.Leaves(n)
		if p.indexOnly && s.vidx.holds(n) {
			p.nodes = append(p.nodes, n)
			p.nodeBins += hi - lo
			continue
		}
		for b := lo; b < hi; b++ {
			sel = append(sel, binSel{bin: b})
		}
	}
	for _, b := range w.Boundary {
		sel = append(sel, binSel{bin: b, filterVC: true})
	}
	slices.SortFunc(sel, func(a, b binSel) int { return a.bin - b.bin })
	return sel
}

// planRows cuts the SC (nil: the whole grid) to each of the row ranges
// into the plan's cuts and returns the chunks the cuts overlap: their deduplicated
// union in row-major order, one plan for every range, so that a bin
// file the ranges share is opened once. The plan's limit becomes the
// number of points the cuts hold.
func (s *Store) planRows(p *plan, rows query.Rows) []int64 {
	p.cuts = make([]grid.Region, len(rows))
	p.limit = 0
	var ids []int64
	for i, r := range rows {
		c := grid.FullRegion(s.meta.shape)
		if p.sc != nil {
			c = grid.Region{Lo: slices.Clone(p.sc.Lo), Hi: slices.Clone(p.sc.Hi)}
		}
		c.Lo[0], c.Hi[0] = r.Lo, r.Hi
		p.cuts[i] = c
		ids = append(ids, s.chunks.OverlappingChunks(c)...)
		p.limit += c.Elems()
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// planFetch compiles a position fetch: the chunks holding a selected
// position, in every bin (a position's bin is unknown until its index
// entry is seen, so all bins of a hit chunk are candidates — their
// per-unit indices are small), with the bitmap as the predicate.
func (s *Store) planFetch(positions *bitmap.Bitmap) (*plan, error) {
	if positions.Len() != s.meta.shape.Elems() {
		return nil, fmt.Errorf("core: bitmap length %d != grid %d", positions.Len(), s.meta.shape.Elems())
	}
	p := s.newPlan(plod.MaxLevel)
	p.positions, p.limit = positions, positions.Count()

	hit := make([]bool, s.chunks.NumChunks())
	coords := make([]int, s.meta.shape.Dims())
	positions.Each(func(i int64) {
		coords = s.meta.shape.Coords(i, coords[:0])
		hit[s.chunks.ChunkIDOf(coords)] = true
	})
	var chunkIDs []int64
	for id, h := range hit {
		if h {
			chunkIDs = append(chunkIDs, int64(id))
		}
	}
	s.planUnits(p, s.everyBin(), chunkIDs, false)
	return p, nil
}

// newPlan returns an empty, unconstrained plan decoding at level.
func (s *Store) newPlan(level int) *plan {
	p := &plan{limit: math.MaxInt64}
	p.level, p.pieces = level, 1
	if s.meta.mode == ModePlanes {
		p.pieces = plod.PlanesForLevel(level)
	}
	return p
}

// everyBin selects all bins; nothing in them needs a VC check.
func (s *Store) everyBin() []binSel {
	sel := make([]binSel, len(s.meta.bins))
	for b := range sel {
		sel[b].bin = b
	}
	return sel
}

// planUnits fills in the plan's tasks: the units of the selected bins
// that lie in the selected chunks. With every set, that is each bin's
// whole unit list and chunkIDs is not looked at; otherwise exactly the
// listed chunks count, so an empty list is an empty plan. A bin's units
// are found through its chunk map, one lookup per listed chunk, so
// planning costs bins × chunks touched rather than a pass over every
// unit.
func (s *Store) planUnits(p *plan, sel []binSel, chunkIDs []int64, every bool) {
	p.chunks = int64(len(chunkIDs))
	if every {
		p.chunks = s.chunks.NumChunks()
	}
	maxTasks := 0
	for _, bs := range sel {
		n := len(s.meta.bins[bs.bin].units)
		if !every {
			n = min(n, len(chunkIDs))
		}
		maxTasks += n
	}
	p.tasks = make([]task, 0, maxTasks)
	for _, bs := range sel {
		bm := &s.meta.bins[bs.bin]
		t := task{bin: bs.bin, needData: !p.indexOnly || bs.filterVC, filterVC: bs.filterVC}
		first := len(p.tasks)
		if every {
			for ui := range bm.units {
				t.unit = ui
				p.tasks = append(p.tasks, t)
			}
		} else {
			for _, id := range chunkIDs {
				if ui, ok := bm.unitByChunk[id]; ok {
					t.unit = ui
					p.tasks = append(p.tasks, t)
				}
			}
			// Chunk ids come in row-major order; units are stored in
			// curve order.
			slices.SortFunc(p.tasks[first:], func(a, b task) int { return a.unit - b.unit })
		}
		if len(p.tasks) > first {
			p.bins++
		}
	}
}

// minNodesPerRank keeps node fan-out worthwhile: every rank that
// touches the vindex pays an open plus at least one seek, so tiny node
// sets concentrate on few ranks instead of spreading that fixed cost
// everywhere.
const minNodesPerRank = 8

// assign splits a plan across ranks. Tasks: column order hands each
// rank a contiguous slice (few bins, thus few files, per rank);
// round-robin stripes them across ranks (the ablation alternative, which
// maximizes file sharing and contention). Node steps, when the plan has
// them: contiguous runs (each run's vindex reads stay adjacent
// and coalesce) handed to the ranks with the lightest task load, so node
// reads overlap boundary-bin work instead of extending the slowest rank.
func (s *Store) assign(p *plan, ranks int) ([][]task, [][]binning.NodeRef) {
	tasks := make([][]task, ranks)
	switch s.assignment {
	case AssignRoundRobin:
		for i, t := range p.tasks {
			tasks[i%ranks] = append(tasks[i%ranks], t)
		}
	default: // AssignColumn
		per := (len(p.tasks) + ranks - 1) / ranks
		for r := range tasks {
			lo := min(r*per, len(p.tasks))
			tasks[r] = p.tasks[lo:min(lo+per, len(p.tasks))]
		}
	}
	inside := p.nodes
	if len(inside) == 0 {
		return tasks, nil
	}
	nodes := make([][]binning.NodeRef, ranks)
	k := min((len(inside)+minNodesPerRank-1)/minNodesPerRank, ranks)
	// Ranks ordered by ascending task load, ties by rank for determinism.
	order := make([]int, ranks)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool { return len(tasks[order[i]]) < len(tasks[order[j]]) })
	per := (len(inside) + k - 1) / k
	for i := 0; i < k; i++ {
		nodes[order[i]] = inside[i*per : min(i*per+per, len(inside))]
	}
	return tasks, nodes
}
