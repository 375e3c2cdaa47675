package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/cache"
	"mloc/internal/compress"
	"mloc/internal/grid"
	"mloc/internal/mpi"
	"mloc/internal/obs"
	"mloc/internal/pfs"
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

// rankOut accumulates one rank's results. reassemble and filter split
// the Reconstruct component for span attribution (index/offset decoding
// vs. the match-filter loop); their sum always equals time.Reconstruct.
type rankOut struct {
	matches    []query.Match
	time       query.Components
	bytes      int64
	blocks     int
	cacheHits  int
	nodesRead  int
	reassemble float64
	filter     float64

	sc *rankScratch
}

// rankScratch is everything a rank needs only until gatherRanks has
// copied its matches out. It is reused bin after bin and, through
// queryScratchPool, query after query, so none of it is paid per unit.
type rankScratch struct {
	// matches is the rank's match buffer between queries; rankOut.matches
	// is the same buffer while one runs.
	matches []query.Match
	// offsets is the current bin's arena of decoded intra-chunk offsets;
	// ends[i] is where task i's run stops.
	offsets []int32
	ends    []int
	// values[i] is task i's decoded values (nil: answered from the index
	// alone). The slices belong to the decode cache or to this bin.
	values [][]float64
	// planes and inflate serve one unit at a time: the unit's compressed
	// planes inflate back to back into inflate, and planes[p] points at
	// plane p there (or at the PFS bytes of a plane stored raw).
	planes  [][]byte
	inflate []byte
	// strides are the grid's row-major strides; widths, global and the
	// chunk region reg are overwritten per unit.
	strides, widths []int64
	global          []int
	reg             grid.Region
	// Extent lists of the bin's two reads.
	idxExtents, dataExtents []extent
}

// setGrid sizes the coordinate scratch for the store's grid.
func (sc *rankScratch) setGrid(shape grid.Shape) {
	dims := shape.Dims()
	sc.global = slices.Grow(sc.global[:0], dims)[:dims]
	sc.widths = slices.Grow(sc.widths[:0], dims)[:dims]
	sc.strides = slices.Grow(sc.strides[:0], dims)[:dims]
	sc.strides[dims-1] = 1
	for d := dims - 2; d >= 0; d-- {
		sc.strides[d] = sc.strides[d+1] * int64(shape[d+1])
	}
}

// taskValues returns the per-task values slice for a bin of n tasks,
// all nil.
func (sc *rankScratch) taskValues(n int) [][]float64 {
	sc.values = slices.Grow(sc.values[:0], n)[:n]
	clear(sc.values)
	return sc.values
}

// maxPooledMatches bounds the match buffer an idle scratch may keep
// (1 MiB of matches); a larger answer's buffer goes back to the GC.
const maxPooledMatches = 1 << 16

// queryScratch is one query's pooled state: a rankScratch and a rankOut
// per rank.
type queryScratch struct {
	ranks []rankScratch
	outs  []rankOut
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// begin returns zeroed outputs for the given number of ranks, each
// wired to its scratch and starting on the scratch's match buffer.
func (q *queryScratch) begin(ranks int) []rankOut {
	for len(q.ranks) < ranks {
		q.ranks = append(q.ranks, rankScratch{})
	}
	q.outs = slices.Grow(q.outs[:0], ranks)[:ranks]
	for r := range q.outs {
		sc := &q.ranks[r]
		q.outs[r] = rankOut{sc: sc, matches: sc.matches[:0]}
	}
	return q.outs
}

// end readies the scratch for the pool once the gather is done (or the
// query failed): each rank's match buffer goes back to its scratch
// unless it outgrew maxPooledMatches, and references to cached values
// are dropped so an idle scratch pins nothing the cache evicted.
func (q *queryScratch) end() {
	for r := range q.outs {
		o := &q.outs[r]
		o.sc.matches = nil
		if cap(o.matches) <= maxPooledMatches {
			o.sc.matches = o.matches[:0]
		}
		clear(o.sc.values[:cap(o.sc.values)])
		q.outs[r] = rankOut{}
	}
}

// gatherRanks is the final gather: every rank's matches copied once
// into a slice of their summed length and sorted, the volume counters
// summed, and the time breakdown of the slowest rank.
func gatherRanks(outs []rankOut) *query.Result {
	res := &query.Result{}
	n := 0
	for i := range outs {
		n += len(outs[i].matches)
	}
	res.Matches = make([]query.Match, 0, n)
	var slowest float64
	for i := range outs {
		res.Matches = append(res.Matches, outs[i].matches...)
		res.BytesRead += outs[i].bytes
		res.BlocksRead += outs[i].blocks
		res.CacheHits += outs[i].cacheHits
		res.IndexNodesRead += outs[i].nodesRead
		if t := outs[i].time.Total(); t >= slowest {
			slowest = t
			res.Time = outs[i].time
		}
	}
	res.Sort()
	return res
}

// Query executes a request over the given number of parallel ranks,
// following the paper's §III-D workflow: bin selection by VC bounds,
// chunk selection by SC mapped through the storage curve, column-order
// block assignment, per-rank fetch/decompress/filter, and a final
// gather. It is QueryContext with a background context.
func (s *Store) Query(req *query.Request, ranks int) (*query.Result, error) {
	return s.QueryContext(context.Background(), req, ranks)
}

// QueryContext is Query under a context: when ctx is canceled or its
// deadline expires, ranks stop issuing PFS reads at the next bin
// boundary and the query returns an error wrapping ctx.Err() promptly,
// so a disconnected caller frees its serving slot instead of running
// the access to completion.
func (s *Store) QueryContext(ctx context.Context, req *query.Request, ranks int) (*query.Result, error) {
	if err := req.Validate(s.meta.shape); err != nil {
		return nil, err
	}
	if ranks < 1 {
		return nil, fmt.Errorf("core: ranks %d < 1", ranks)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: query canceled: %w", err)
	}
	level := req.PLoDLevel
	if level == 0 {
		level = plod.MaxLevel
	}
	if s.meta.mode == ModeFloats && level != plod.MaxLevel {
		return nil, fmt.Errorf("core: store mode %q does not support PLoD level %d (use the planes/COL mode)",
			s.meta.mode, level)
	}

	_, ps := obs.StartSpan(ctx, "plan")
	tasks, binsAccessed, hier := s.planTasks(req)
	perRank := s.assignTasks(tasks, ranks)
	var perRankNodes [][]binning.NodeRef
	if hier != nil {
		loads := make([]int, ranks)
		for r := range perRank {
			loads[r] = len(perRank[r])
		}
		perRankNodes = assignNodes(hier.Inside, loads)
		ps.SetInt("bins_pruned", int64(hier.PrunedLeaves))
		ps.SetInt("bins_covered", int64(hier.CoveredLeaves))
		ps.SetInt("index_nodes", int64(len(hier.Inside)))
	}
	ps.SetInt("tasks", int64(len(tasks)))
	ps.SetInt("bins", int64(binsAccessed))
	ps.SetInt("ranks", int64(ranks))
	ps.End()

	qs := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(qs)
	outs := qs.begin(ranks)
	defer qs.end() // runs before the Put, after the gather
	clks := s.fs.NewClocks(ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		rctx, rs := obs.StartSpan(ctx, "rank")
		rs.SetInt("rank", int64(c.Rank()))
		rerr := s.runRank(rctx, clks[c.Rank()], perRank[c.Rank()], req, level, &outs[c.Rank()])
		if rerr == nil && perRankNodes != nil {
			rerr = s.runNodes(rctx, clks[c.Rank()], perRankNodes[c.Rank()], req, &outs[c.Rank()])
		}
		o := &outs[c.Rank()]
		rs.SetFloat("virt_total_s", o.time.Total())
		rs.SetInt("matches", int64(len(o.matches)))
		rs.SetInt("bytes", o.bytes)
		rs.SetInt("cache_hits", int64(o.cacheHits))
		rs.End()
		return rerr
	})
	if err != nil {
		return nil, err
	}

	res := gatherRanks(outs)
	res.BinsAccessed = binsAccessed
	if hier != nil {
		// Covered leaves were answered from aggregated node bitmaps;
		// they count as accessed (their contents were served) even
		// though no per-bin file was touched.
		res.BinsAccessed += hier.CoveredLeaves
		res.BinsPruned = hier.PrunedLeaves
		res.BinsCovered = hier.CoveredLeaves
	}
	return res, nil
}

// hierPlan reports whether a request takes the hierarchical index path:
// the store has a vindex, the request is value-constrained, and it is
// index-only, so fully-inside subtrees resolve from aggregated node
// bitmaps with no data reads. Value-retrieval requests decode the data
// anyway, which the per-bin layout already serves optimally.
func (s *Store) hierPlan(req *query.Request) bool {
	return s.vidx != nil && req.VC != nil && req.IndexOnly
}

// planTasks selects bins by VC and chunks by SC, producing the task
// list in column order (bin-major, then storage order within the bin).
// On the hierarchical path only boundary leaves become tasks; the
// returned Selection carries the inside-subtree roots (answered from
// the vindex by runNodes) and the pruning accounting.
func (s *Store) planTasks(req *query.Request) ([]task, int, *binning.Selection) {
	// Bin selection.
	type binSel struct {
		bin      int
		filterVC bool
	}
	var sel []binSel
	var hier *binning.Selection
	if s.hierPlan(req) {
		hs := s.vidx.tree.Select(*req.VC)
		hier = &hs
		sel = make([]binSel, 0, len(hs.Boundary))
		for _, b := range hs.Boundary {
			sel = append(sel, binSel{bin: b, filterVC: true})
		}
	} else if req.VC != nil {
		aligned, mis := s.scheme.SelectBins(*req.VC)
		sel = make([]binSel, 0, len(aligned)+len(mis))
		for _, b := range aligned {
			sel = append(sel, binSel{bin: b})
		}
		for _, b := range mis {
			sel = append(sel, binSel{bin: b, filterVC: true})
		}
		slices.SortFunc(sel, func(a, b binSel) int { return a.bin - b.bin })
	} else {
		sel = make([]binSel, 0, len(s.meta.bins))
		for b := range s.meta.bins {
			sel = append(sel, binSel{bin: b})
		}
	}

	// Chunk selection: under an SC a bin's units are found through its
	// chunk map, one lookup per overlapping chunk, so planning costs
	// bins × chunks touched rather than a pass over every unit.
	var chunkIDs []int64
	if req.SC != nil {
		chunkIDs = s.chunks.OverlappingChunks(*req.SC)
	}

	maxTasks := 0
	for _, bs := range sel {
		n := len(s.meta.bins[bs.bin].units)
		if req.SC != nil {
			n = min(n, len(chunkIDs))
		}
		maxTasks += n
	}
	tasks := make([]task, 0, maxTasks)
	binsTouched := 0
	for _, bs := range sel {
		bm := &s.meta.bins[bs.bin]
		t := task{bin: bs.bin, needData: !req.IndexOnly || bs.filterVC, filterVC: bs.filterVC}
		first := len(tasks)
		if req.SC == nil {
			for ui := range bm.units {
				t.unit = ui
				tasks = append(tasks, t)
			}
		} else {
			for _, id := range chunkIDs {
				if ui, ok := bm.unitByChunk[id]; ok {
					t.unit = ui
					tasks = append(tasks, t)
				}
			}
			// Chunk ids come in row-major order; units are stored in
			// curve order.
			slices.SortFunc(tasks[first:], func(a, b task) int { return a.unit - b.unit })
		}
		if len(tasks) > first {
			binsTouched++
		}
	}
	return tasks, binsTouched, hier
}

// minNodesPerRank keeps node fan-out worthwhile: every rank that
// touches the vindex pays an open plus at least one seek, so tiny node
// sets concentrate on few ranks instead of spreading that fixed cost
// everywhere.
const minNodesPerRank = 8

// assignNodes splits the inside-subtree roots into contiguous runs
// (each run's vindex reads stay adjacent and coalesce) and hands the
// runs to the ranks with the lightest task load, so node reads overlap
// boundary-bin work instead of extending the slowest rank.
func assignNodes(nodes []binning.NodeRef, loads []int) [][]binning.NodeRef {
	ranks := len(loads)
	out := make([][]binning.NodeRef, ranks)
	if len(nodes) == 0 {
		return out
	}
	k := (len(nodes) + minNodesPerRank - 1) / minNodesPerRank
	if k > ranks {
		k = ranks
	}
	// Ranks ordered by ascending task load, ties by rank for determinism.
	order := make([]int, ranks)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool { return loads[order[i]] < loads[order[j]] })
	per := (len(nodes) + k - 1) / k
	for i := 0; i < k; i++ {
		lo, hi := i*per, i*per+per
		if hi > len(nodes) {
			hi = len(nodes)
		}
		out[order[i]] = nodes[lo:hi]
	}
	return out
}

// runNodes answers one rank's share of the inside-subtree roots from
// the vindex: all node bitmaps are fetched in a single coalesced read
// batch from the vindex subfile (one open, extents sorted and
// gap-merged across tree levels), then decoded and their set bits
// emitted as matches (filtered by SC per point). Decode and filter
// cost is charged per tree level — the span carries one virtual-clock
// event per level, mirroring the per-level charging the build passes
// report.
func (s *Store) runNodes(ctx context.Context, clk *pfs.Clock, nodes []binning.NodeRef, req *query.Request, out *rankOut) error {
	if len(nodes) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: query canceled before vindex nodes: %w", err)
	}
	_, vs := obs.StartSpan(ctx, "vindex")
	defer vs.End()
	vs.SetInt("nodes", int64(len(nodes)))
	if err := s.fs.Open(clk, s.vidx.path); err != nil {
		return err
	}

	// One read batch for the whole node set: the payloads live in one
	// subfile in level order, so sorting and gap-merging the extents
	// costs at most a seek per disjoint run, not one per level.
	t0 := clk.Now()
	sc := out.sc
	sc.idxExtents = sc.idxExtents[:0]
	for _, n := range nodes {
		id := s.vidx.nodeID(n)
		sc.idxExtents = append(sc.idxExtents, extent{s.vidx.offs[id], s.vidx.lens[id]})
	}
	m, ioBytes, err := readCoalesced(s.fs, clk, s.vidx.path, sc.idxExtents)
	if err != nil {
		return err
	}
	out.bytes += ioBytes
	out.time.IO += clk.Now() - t0
	vs.Event("read", 0, clk.Now()-t0).SetInt("bytes", ioBytes)

	// The plan sizes the nodes' share of the match buffer before any is
	// decoded: a node's set bits are the points of the leaf bins under
	// it — exactly, without an SC; with one, the rank's whole answer lies
	// inside it, so what is left of its volume bounds the nodes too.
	var points int64
	for _, n := range nodes {
		lo, hi := s.vidx.tree.Leaves(n)
		for _, bm := range s.meta.bins[lo:hi] {
			for i := range bm.units {
				points += int64(bm.units[i].count)
			}
		}
	}
	if req.SC != nil {
		points = min(points, req.SC.Elems()-int64(len(out.matches)))
	}
	out.matches = slices.Grow(out.matches, int(max(points, 0)))

	// Walk the nodes by level (ascending); Select emits them in leaf
	// order, so a stable sort keeps each level's nodes sorted.
	refs := slices.Clone(nodes)
	slices.SortStableFunc(refs, func(a, b binning.NodeRef) int { return a.Level - b.Level })
	sc.setGrid(s.meta.shape)
	coords := sc.global
	l0 := clk.Now()
	for i, n := range refs {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: query canceled at vindex node %d/%d: %w", n.Level, n.Index, err)
		}
		id := s.vidx.nodeID(n)
		raw, err := m.slice(s.vidx.offs[id], s.vidx.lens[id])
		if err != nil {
			return fmt.Errorf("core: vindex node %d: %w", id, err)
		}
		var w bitmap.WAH
		decode := clk.MeasureCPU(func() {
			err = w.UnmarshalBinary(raw)
		})
		out.time.Decompress += decode
		if err != nil {
			return fmt.Errorf("core: vindex node %d: %w", id, err)
		}
		if w.Len() != s.vidx.bitLen {
			return fmt.Errorf("core: vindex node %d covers %d positions, grid has %d", id, w.Len(), s.vidx.bitLen)
		}
		filter := clk.MeasureCPU(func() {
			it := w.Bits()
			for lin, ok := it.Next(); ok; lin, ok = it.Next() {
				if req.SC != nil {
					coords = s.meta.shape.Coords(lin, coords[:0])
					if !req.SC.Contains(coords) {
						continue
					}
				}
				out.matches = append(out.matches, query.Match{Index: lin})
			}
		})
		out.filter += filter
		out.time.Reconstruct += filter
		out.nodesRead++
		if i+1 == len(refs) || refs[i+1].Level != n.Level {
			vs.Event("level", 0, clk.Now()-l0).SetInt("level", int64(n.Level))
			l0 = clk.Now()
		}
	}
	return nil
}

// assignTasks splits the task list across ranks. Column order hands
// each rank a contiguous slice (few bins, thus few files, per rank);
// round-robin stripes tasks across ranks (the ablation alternative,
// which maximizes file sharing and contention).
func (s *Store) assignTasks(tasks []task, ranks int) [][]task {
	out := make([][]task, ranks)
	switch s.assignment {
	case AssignRoundRobin:
		for i, t := range tasks {
			r := i % ranks
			out[r] = append(out[r], t)
		}
	default: // AssignColumn
		per := (len(tasks) + ranks - 1) / ranks
		for r := 0; r < ranks; r++ {
			lo := r * per
			hi := lo + per
			if lo > len(tasks) {
				lo = len(tasks)
			}
			if hi > len(tasks) {
				hi = len(tasks)
			}
			out[r] = tasks[lo:hi]
		}
	}
	return out
}

// runRank executes one rank's tasks, grouped by bin so each bin's files
// are opened once and reads coalesce. Cancellation is checked at every
// bin boundary: a bin is the engine's unit of I/O, so that is the
// soonest point at which stopping saves PFS work.
func (s *Store) runRank(ctx context.Context, clk *pfs.Clock, tasks []task, req *query.Request, level int, out *rankOut) error {
	if len(tasks) == 0 {
		return nil
	}
	// The plan bounds the rank's answer: a unit contributes at most its
	// point count, and exactly that when neither VC nor SC filters it;
	// an SC's volume bounds it as well.
	points := 0
	for _, t := range tasks {
		points += int(s.meta.bins[t.bin].units[t.unit].count)
	}
	if req.SC != nil {
		points = min(points, int(req.SC.Elems()))
	}
	out.matches = slices.Grow(out.matches, points)
	out.sc.setGrid(s.meta.shape)
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].bin == tasks[lo].bin {
			hi++
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: query canceled before bin %d: %w", tasks[lo].bin, err)
		}
		if err := s.processBin(ctx, clk, tasks[lo:hi], req, level, out); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// extent is a byte range in a file.
type extent struct{ off, length int64 }

// processBin handles one rank's tasks within a single bin, in stages
// that each pay their fixed costs once for the bin: probe the decode
// cache and fetch (resident units' data extents are never read), decode
// every unit's offsets, resolve the values unit by unit (misses go
// through the cache's single-flight path so concurrent queries
// decompress each unit once), then filter and emit the whole bin.
func (s *Store) processBin(ctx context.Context, clk *pfs.Clock, tasks []task, req *query.Request, level int, out *rankOut) error {
	bin := tasks[0].bin
	if s.hookBeforeBin != nil {
		s.hookBeforeBin(bin)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: query canceled at bin %d: %w", bin, err)
	}
	ctx, bs := obs.StartSpan(ctx, "bin")
	defer bs.End()
	bs.SetInt("bin", int64(bin))
	bs.SetInt("units", int64(len(tasks)))
	// Component snapshots: the deltas across this bin become the
	// fetch/decode/reassemble/filter child spans, recorded as completed
	// Events carrying virtual-clock seconds (wall time is not split).
	before := *out
	sc := out.sc
	bm := &s.meta.bins[bin]
	idxPath := binIndexPath(s.prefix, bin)
	dataPath := binDataPath(s.prefix, bin)

	// Cache probe: units already resident need neither a data read nor
	// a decode. values is aligned with tasks (nil = not resolved yet).
	values := sc.taskValues(len(tasks))
	if s.decodeCache != nil {
		for i, t := range tasks {
			if !t.needData {
				continue
			}
			if vals, ok := s.decodeCache.Get(s.cacheKey(bin, t.unit, level)); ok {
				values[i] = vals
				out.cacheHits++
			}
		}
	}

	// Index extents: every task needs its positional index.
	sc.idxExtents = sc.idxExtents[:0]
	needAnyData := false
	for i, t := range tasks {
		u := &bm.units[t.unit]
		sc.idxExtents = append(sc.idxExtents, extent{u.indexOff, u.indexLen})
		if t.needData && values[i] == nil {
			needAnyData = true
		}
	}
	t0 := clk.Now()
	wall0 := time.Now()
	if err := s.fs.Open(clk, idxPath); err != nil {
		return err
	}
	idxMap, ioBytes, err := readCoalesced(s.fs, clk, idxPath, sc.idxExtents)
	if err != nil {
		return err
	}
	out.bytes += ioBytes

	// Data extents for the required pieces of cache-missed units.
	nPlanes := plod.PlanesForLevel(level)
	var dataMap *extentMap
	if needAnyData {
		if err := s.fs.Open(clk, dataPath); err != nil {
			return err
		}
		sc.dataExtents = sc.dataExtents[:0]
		for i, t := range tasks {
			if !t.needData || values[i] != nil {
				continue
			}
			u := &bm.units[t.unit]
			if s.meta.mode == ModePlanes {
				for p := 0; p < nPlanes; p++ {
					sc.dataExtents = append(sc.dataExtents, extent{u.pieceOff[p], u.pieceLen[p]})
				}
			} else {
				sc.dataExtents = append(sc.dataExtents, extent{u.pieceOff[0], u.pieceLen[0]})
			}
		}
		dataMap, ioBytes, err = readCoalesced(s.fs, clk, dataPath, sc.dataExtents)
		if err != nil {
			return err
		}
		out.bytes += ioBytes
	}
	out.time.IO += clk.Now() - t0
	bs.Event("fetch", time.Since(wall0), out.time.IO-before.time.IO).
		SetInt("bytes", out.bytes-before.bytes)

	// Reassemble: every unit's offsets into the bin's arena.
	if err := s.decodeBinOffsets(clk, tasks, idxMap, out); err != nil {
		return err
	}

	// Decode: the values of every unit the probe did not resolve.
	for i, t := range tasks {
		if !t.needData || values[i] != nil {
			continue
		}
		values[i], err = s.unitValues(ctx, clk, t, &bm.units[t.unit], level, dataMap, out)
		if err != nil {
			return fmt.Errorf("core: bin %d unit %d data: %w", bin, t.unit, err)
		}
	}

	// Filter: map intra-chunk offsets to global indices and emit.
	filter := clk.MeasureCPU(func() {
		lo := 0
		for i, t := range tasks {
			s.emitUnit(t, &bm.units[t.unit], req, sc.offsets[lo:sc.ends[i]], values[i], out)
			lo = sc.ends[i]
		}
	})
	out.filter += filter
	out.time.Reconstruct += filter

	bs.Event("decode", 0, out.time.Decompress-before.time.Decompress).
		SetInt("blocks", int64(out.blocks-before.blocks))
	bs.Event("reassemble", 0, out.reassemble-before.reassemble)
	bs.Event("filter", 0, out.filter-before.filter).
		SetInt("matches", int64(len(out.matches)-len(before.matches)))
	bs.SetInt("cache_hits", int64(out.cacheHits-before.cacheHits))
	return nil
}

// decodeBinOffsets decodes the positional index of every task of one
// bin into the rank's offsets arena, as one measured section charged to
// the reassemble component.
func (s *Store) decodeBinOffsets(clk *pfs.Clock, tasks []task, idxMap *extentMap, out *rankOut) error {
	sc := out.sc
	sc.offsets, sc.ends = sc.offsets[:0], sc.ends[:0]
	bm := &s.meta.bins[tasks[0].bin]
	var err error
	reassemble := clk.MeasureCPU(func() {
		for _, t := range tasks {
			u := &bm.units[t.unit]
			var raw []byte
			if raw, err = idxMap.slice(u.indexOff, u.indexLen); err == nil {
				sc.offsets, err = decodeOffsets(sc.offsets, raw, int(u.count))
			}
			if err != nil {
				err = fmt.Errorf("core: bin %d unit %d index: %w", t.bin, t.unit, err)
				return
			}
			sc.ends = append(sc.ends, len(sc.offsets))
		}
	})
	out.reassemble += reassemble
	out.time.Reconstruct += reassemble
	return err
}

// cacheKey builds the decode-cache key for one unit of this store.
func (s *Store) cacheKey(bin, unit, level int) cache.Key {
	return cache.Key{Store: s.prefix, Bin: bin, Unit: unit, Level: level}
}

// unitValues decodes a unit's values: through the decode cache's
// single-flight path, or directly when no cache is attached. It updates
// the rank's decompress time, block count, and cache-hit count. The
// measured section sits inside the flight's compute, never around the
// wait for another query's flight: a waiter holds no slot of the
// measurement gate, so the flight's leader can always get one.
func (s *Store) unitValues(ctx context.Context, clk *pfs.Clock, t task, u *unitMeta, level int, dataMap *extentMap, out *rankOut) ([]float64, error) {
	var decompress float64
	decode := func() (values []float64, err error) {
		decompress = clk.MeasureCPU(func() {
			values, err = s.decodeUnitValues(u, level, dataMap, out.sc)
		})
		return values, err
	}
	if s.decodeCache == nil {
		values, err := decode()
		if err != nil {
			return nil, err
		}
		out.time.Decompress += decompress
		out.blocks++
		return values, nil
	}
	values, hit, err := s.decodeCache.GetOrCompute(ctx, s.cacheKey(t.bin, t.unit, level), decode)
	if err != nil {
		return nil, err
	}
	if hit {
		// Another query's decode (or an insert racing the probe) served
		// this unit; the data bytes were read but no CPU was spent.
		out.cacheHits++
	} else {
		out.time.Decompress += decompress
		out.blocks++
	}
	return values, nil
}

// emitUnit appends one unit's qualifying matches: offsets are its
// decoded intra-chunk offsets, values its decoded values (nil when the
// unit is answered from the index alone). The chunk's global strides
// are precomputed so the per-point mapping avoids repeated
// bounds-checked Linear calls — this loop dominates high-selectivity
// region queries.
func (s *Store) emitUnit(t task, u *unitMeta, req *query.Request, offsets []int32, values []float64, out *rankOut) {
	s.chunks.ChunkRegionInto(u.chunkID, &out.sc.reg)
	reg := out.sc.reg
	chunkInSC := req.SC == nil || regionInside(reg, *req.SC)
	dims := s.meta.shape.Dims()
	global, strides, widths := out.sc.global, out.sc.strides, out.sc.widths
	var base int64
	for d := 0; d < dims; d++ {
		base += int64(reg.Lo[d]) * strides[d]
		widths[d] = int64(reg.Hi[d] - reg.Lo[d])
	}
	for i, off := range offsets {
		// Decompose the intra-chunk offset and accumulate the global
		// linear index in one pass.
		rem := int64(off)
		lin := base
		for d := dims - 1; d >= 0; d-- {
			l := rem % widths[d]
			rem /= widths[d]
			lin += l * strides[d]
			if !chunkInSC {
				global[d] = reg.Lo[d] + int(l)
			}
		}
		if !chunkInSC && !req.SC.Contains(global) {
			continue
		}
		var v float64
		if values != nil {
			v = values[i]
			if t.filterVC && !req.VC.Contains(v) {
				continue
			}
		}
		m := query.Match{Index: lin}
		if !req.IndexOnly {
			m.Value = v
		}
		out.matches = append(out.matches, m)
	}
}

// decodeUnitValues reconstructs the unit's values at the given PLoD
// level (planes mode) or in full (floats mode). The returned slice is
// freshly allocated — the decode cache may keep it — while the planes
// it is assembled from inflate into sc. Every plane is inflated through
// the bounded decoder: the metadata says how many bytes it holds, so a
// corrupt piece fails one byte past that instead of allocating without
// limit.
func (s *Store) decodeUnitValues(u *unitMeta, level int, dataMap *extentMap, sc *rankScratch) ([]float64, error) {
	count := int(u.count)
	if s.meta.mode == ModeFloats {
		raw, err := dataMap.slice(u.pieceOff[0], u.pieceLen[0])
		if err != nil {
			return nil, err
		}
		values, err := s.floatCodec.DecodeFloats(raw, make([]float64, 0, count))
		if err != nil {
			return nil, err
		}
		if len(values) != count {
			return nil, fmt.Errorf("decoded %d values, want %d", len(values), count) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
		}
		return values, nil
	}

	nPlanes := plod.PlanesForLevel(level)
	sc.planes = slices.Grow(sc.planes[:0], nPlanes)[:nPlanes]
	// count has passed decodeOffsets' check against the index bytes read,
	// so it can size the buffer the unit's planes inflate into back to
	// back.
	sc.inflate = slices.Grow(sc.inflate[:0], count*plod.BytesPerValue(level))
	for p := 0; p < nPlanes; p++ {
		raw, err := dataMap.slice(u.pieceOff[p], u.pieceLen[p])
		if err != nil {
			return nil, err
		}
		want := count * plod.PlaneWidth(p)
		if p < s.meta.compPlanes && u.rawPlanes&(1<<uint(p)) == 0 {
			from := len(sc.inflate)
			sc.inflate, err = compress.DecodeBytesMax(s.byteCodec, raw, sc.inflate, int64(want))
			if err != nil {
				return nil, err
			}
			raw = sc.inflate[from:]
		}
		if len(raw) != want {
			return nil, fmt.Errorf("plane %d has %d bytes, want %d", p, len(raw), want) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
		}
		sc.planes[p] = raw
	}
	return plod.Assemble(sc.planes, level, count, plod.FillCentered, make([]float64, 0, count)), nil
}

// decodeOffsets expands count delta-uvarint intra-chunk offsets from
// raw, appending them to dst. The varint decode is inlined with a
// single-byte fast path because this stream is the inner loop of every
// index read.
func decodeOffsets(dst []int32, raw []byte, count int) ([]int32, error) {
	n := len(raw)
	if count > n {
		// Every entry takes at least a byte; checked before count sizes
		// anything, since it comes from the store's metadata.
		return dst, fmt.Errorf("truncated offset stream at entry %d", n) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
	}
	dst = slices.Grow(dst, count)
	prev := int32(0)
	pos := 0
	for i := 0; i < count; i++ {
		if pos >= n {
			return dst, fmt.Errorf("truncated offset stream at entry %d", i) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
		}
		b := raw[pos]
		if b < 0x80 {
			// Fast path: deltas are almost always < 128 (one bin's
			// points inside a chunk sit a few positions apart).
			pos++
			prev += int32(b)
			dst = append(dst, prev)
			continue
		}
		var d uint64
		var shift uint
		for {
			if pos >= n {
				return dst, fmt.Errorf("truncated offset stream at entry %d", i) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
			}
			c := raw[pos]
			pos++
			d |= uint64(c&0x7F) << shift
			if c < 0x80 {
				break
			}
			shift += 7
			if shift > 35 {
				return dst, fmt.Errorf("malformed offset varint at entry %d", i) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
			}
		}
		prev += int32(d)
		dst = append(dst, prev)
	}
	if pos != n {
		return dst, fmt.Errorf("offset stream has %d trailing bytes", n-pos) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
	}
	return dst, nil
}

// localCoords converts a row-major offset within a chunk region to
// local coordinates.
func localCoords(reg grid.Region, off int64, dst []int) {
	for d := len(dst) - 1; d >= 0; d-- {
		w := int64(reg.Hi[d] - reg.Lo[d])
		dst[d] = int(off % w)
		off /= w
	}
}

// regionInside reports whether inner is fully contained in outer.
func regionInside(inner, outer grid.Region) bool {
	for d := range inner.Lo {
		if inner.Lo[d] < outer.Lo[d] || inner.Hi[d] > outer.Hi[d] {
			return false
		}
	}
	return true
}

// extentMap holds coalesced read buffers for extent lookups.
type extentMap struct {
	base []int64
	bufs [][]byte
}

// slice returns the bytes for an extent previously covered by a
// coalesced read.
func (m *extentMap) slice(off, length int64) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	i := sort.Search(len(m.base), func(i int) bool { return m.base[i] > off })
	if i == 0 {
		return nil, fmt.Errorf("extent [%d,%d) not loaded", off, off+length) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
	}
	i--
	rel := off - m.base[i]
	if rel+length > int64(len(m.bufs[i])) {
		return nil, fmt.Errorf("extent [%d,%d) exceeds loaded range", off, off+length) //mlocvet:ignore errprefix -- wrapped with the core prefix by the exported caller
	}
	return m.bufs[i][rel : rel+length], nil
}

// readCoalesced sorts and merges the extents and issues one PFS read
// per merged extent, charging clk. Extents separated by gaps up to the
// simulator's CoalesceGap are merged too: reading through a small gap
// costs less than the seek it avoids, which is exactly the paper's
// rationale for curve-ordered layouts (§III-B2). The list is sorted and
// merged in place: the caller gets it back reordered and overwritten.
func readCoalesced(fs *pfs.Sim, clk *pfs.Clock, path string, extents []extent) (*extentMap, int64, error) {
	if len(extents) == 0 {
		return &extentMap{}, 0, nil
	}
	maxGap := fs.CoalesceGap()
	slices.SortFunc(extents, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	merged := extents[:0] // writes trail the reads below
	cur := extents[0]
	for _, e := range extents[1:] {
		if e.length == 0 {
			continue
		}
		if cur.length == 0 {
			cur = e
			continue
		}
		if e.off <= cur.off+cur.length+maxGap {
			// Adjacent, overlapping, or within the economical gap:
			// extend (gap bytes are read and paid for).
			if end := e.off + e.length; end > cur.off+cur.length {
				cur.length = end - cur.off
			}
			continue
		}
		merged = append(merged, cur)
		cur = e
	}
	if cur.length > 0 {
		merged = append(merged, cur)
	}
	m := &extentMap{base: make([]int64, 0, len(merged)), bufs: make([][]byte, 0, len(merged))}
	var total int64
	for _, e := range merged {
		buf, err := fs.ReadAt(clk, path, e.off, e.length)
		if err != nil {
			return nil, total, err
		}
		m.base = append(m.base, e.off)
		m.bufs = append(m.bufs, buf)
		total += e.length
	}
	return m, total, nil
}
