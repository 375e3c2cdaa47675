package core

import (
	"context"
	"fmt"
	"slices"
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

// rankOut accumulates one rank's results and the totals its trace
// reports. reassemble and filter split the Reconstruct component for
// span attribution (index/offset decoding vs. the match-filter loop);
// their sum always equals time.Reconstruct. fetchWall is the host time
// of the rank's PFS reads, the one stage whose wall time is kept apart.
type rankOut struct {
	matches     []query.Match
	time        query.Components
	bytes       int64
	blocks      int
	cacheHits   int
	nodesRead   int
	bins, units int
	reassemble  float64
	filter      float64
	fetchWall   time.Duration

	sc *rankScratch
}

// trace records the rank's work under its rank span as one event per
// stage — fetch, decode, reassemble, filter — whose virtual seconds sum
// to the rank's total, each carrying its own stage's counts. A rank is
// traced per stage, not per bin, so a query's trace is O(ranks) spans
// whatever the store's bin count.
func (o *rankOut) trace(rs *obs.Span) {
	rs.SetFloat("virt_total_s", o.time.Total())
	fetch := rs.Event("fetch", o.fetchWall, o.time.IO)
	fetch.SetInt("bins", int64(o.bins))
	fetch.SetInt("bytes", o.bytes)
	decode := rs.Event("decode", 0, o.time.Decompress)
	decode.SetInt("blocks", int64(o.blocks))
	decode.SetInt("cache_hits", int64(o.cacheHits))
	decode.SetInt("index_nodes", int64(o.nodesRead))
	rs.Event("reassemble", 0, o.reassemble).SetInt("units", int64(o.units))
	rs.Event("filter", 0, o.filter).SetInt("matches", int64(len(o.matches)))
}

// rankScratch is everything a rank needs only until gatherRanks has
// copied its matches out. It is reused bin after bin and, through
// queryScratchPool, query after query, so none of it is paid per unit.
type rankScratch struct {
	// matches is the rank's match buffer between queries; rankOut.matches
	// is the same buffer while one runs.
	matches []query.Match
	// offsets is the current bin's arena of intra-chunk offsets, decoded
	// or copied from the cache; ends[i] is where task i's run stops (see
	// run).
	offsets []int32
	ends    []int
	// units[i] is task i's decoded unit: what the cache probe found, then
	// its values (nil: answered from the index alone). The slices belong
	// to the decode cache or to this bin.
	units []cache.Unit
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
	idxExtents, dataExtents []pfs.Extent
}

// run returns task i's offsets in the current bin's arena.
func (sc *rankScratch) run(i int) []int32 {
	lo := 0
	if i > 0 {
		lo = sc.ends[i-1]
	}
	return sc.offsets[lo:sc.ends[i]]
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

// taskUnits returns the units of a bin's tasks, each asking for its
// values at level when the task needs data and for its offsets only
// (level 0) otherwise.
func (sc *rankScratch) taskUnits(tasks []task, level int) []cache.Unit {
	sc.units = slices.Grow(sc.units[:0], len(tasks))[:len(tasks)]
	for i, t := range tasks {
		sc.units[i] = cache.Unit{Unit: t.unit}
		if t.needData {
			sc.units[i].Level = level
		}
	}
	return sc.units
}

// maxPooledMatches bounds the match buffer an idle scratch may keep
// (1 MiB of matches); a larger answer's buffer goes back to the GC.
const maxPooledMatches = 1 << 16

// queryScratch is one query's pooled state: the split's working state,
// and a rankScratch and a rankOut per rank.
type queryScratch struct {
	split splitScratch
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
		clear(o.sc.units[:cap(o.sc.units)])
		q.outs[r] = rankOut{}
	}
	// The split's per-rank slices alias the plan; drop them so an idle
	// scratch pins no plan.
	clear(q.split.tasks)
	clear(q.split.nodes)
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
	return s.execute(ctx, ranks, func() (*plan, error) { return s.planQuery(req) })
}

// execute is the one frame every access runs in: compile the plan and
// assign it to ranks (the "plan" span), run each rank's bins and vindex
// nodes on its own clock with pooled scratch (a "rank" span with the
// rank's stage events), gather.
func (s *Store) execute(ctx context.Context, ranks int, compile func() (*plan, error)) (*query.Result, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("core: ranks %d < 1", ranks)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: query canceled: %w", err)
	}

	qs := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(qs)
	_, ps := obs.StartSpan(ctx, "plan")
	p, err := compile()
	if err != nil {
		ps.End()
		return nil, err
	}
	perRank, perRankNodes := s.assign(p, ranks, &qs.split)
	if p.indexOnly && p.vc != nil {
		ps.SetInt("bins_pruned", int64(p.pruned))
		ps.SetInt("bins_covered", int64(p.covered))
		ps.SetInt("index_nodes", int64(len(p.nodes)))
	}
	ps.SetInt("tasks", int64(len(p.tasks)))
	ps.SetInt("bins", int64(p.bins))
	ps.SetInt("ranks", int64(ranks))
	ps.End()

	outs := qs.begin(ranks)
	defer qs.end() // runs before the Put, after the gather
	clks := s.fs.NewClocks(ranks)
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		r := c.Rank()
		_, rs := obs.StartSpan(ctx, "rank")
		rs.SetInt("rank", int64(r))
		rerr := s.runRank(ctx, clks[r], p, perRank[r], &outs[r])
		if rerr == nil && perRankNodes != nil {
			rerr = s.runNodes(ctx, clks[r], p, perRankNodes[r], &outs[r])
		}
		outs[r].trace(rs)
		rs.End()
		return rerr
	})
	if err != nil {
		return nil, err
	}

	res := gatherRanks(outs)
	// The bins under node steps count as accessed (their contents were
	// served) even though no per-bin file was touched.
	res.BinsAccessed = p.bins + p.nodeBins
	res.BinsPruned, res.BinsCovered = p.pruned, p.covered
	return res, nil
}

// runNodes answers one rank's share of the inside-subtree roots from
// the vindex: all node bitmaps are fetched in a single coalesced read
// batch from the vindex subfile (one open, extents sorted and
// gap-merged across tree levels), then decoded and their set bits
// emitted as matches (filtered by SC per point). The read, each node's
// bitmap decode and its filter loop add to the rank's fetch, decode and
// filter totals, the same stages the bins report.
func (s *Store) runNodes(ctx context.Context, clk *pfs.Clock, p *plan, nodes []binning.NodeRef, out *rankOut) error {
	if len(nodes) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: query canceled before vindex nodes: %w", err)
	}
	// One read batch for the whole node set: the payloads live in one
	// subfile in level order, so sorting and gap-merging the extents
	// costs at most a seek per disjoint run, not one per level. The open
	// is part of the fetch, as it is for a bin.
	sc := out.sc
	sc.idxExtents = sc.idxExtents[:0]
	for _, n := range nodes {
		id := s.vidx.nodeID(n)
		sc.idxExtents = append(sc.idxExtents, pfs.Extent{Off: s.vidx.offs[id], Len: s.vidx.lens[id]})
	}
	m, err := s.readFile(clk, s.vidx.path, sc.idxExtents, out)
	if err != nil {
		return err
	}

	// The plan sizes the nodes' share of the match buffer before any is
	// decoded: a node's set bits are the points of the leaf bins under
	// it — exactly, without an SC; with one, the rank's whole answer lies
	// inside it, so what is left of its volume bounds the nodes too.
	var points int64
	for _, n := range nodes {
		lo, hi := s.tree.Leaves(n)
		for _, bm := range s.meta.bins[lo:hi] {
			for i := range bm.units {
				points += int64(bm.units[i].count)
			}
		}
	}
	points = min(points, p.limit-int64(len(out.matches)))
	out.matches = slices.Grow(out.matches, int(max(points, 0)))

	sc.setGrid(s.meta.shape)
	coords := sc.global
	for _, n := range nodes {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: query canceled at vindex node %d/%d: %w", n.Level, n.Index, err)
		}
		id := s.vidx.nodeID(n)
		raw, err := m.Slice(s.vidx.offs[id], s.vidx.lens[id])
		if err != nil {
			return fmt.Errorf("core: vindex node %d: %w", id, err)
		}
		var w bitmap.WAH
		err = w.UnmarshalBinary(raw)
		out.time.Decompress += clk.ChargeCPU(pfs.CPUBitmapByte, int64(len(raw)))
		if err != nil {
			return fmt.Errorf("core: vindex node %d: %w", id, err)
		}
		if w.Len() != s.vidx.bitLen {
			return fmt.Errorf("core: vindex node %d covers %d positions, grid has %d", id, w.Len(), s.vidx.bitLen)
		}
		it := w.Bits()
		// Bits come in ascending order, so the cut that may hold the next
		// one only moves forward.
		k := 0
		var bits int64
		from := len(out.matches)
		for lin, ok := it.Next(); ok; lin, ok = it.Next() {
			bits++
			switch {
			case p.cuts != nil:
				coords = s.meta.shape.Coords(lin, coords[:0])
				for k < len(p.cuts) && p.cuts[k].Hi[0] <= coords[0] {
					k++
				}
				if k == len(p.cuts) || !p.cuts[k].Contains(coords) {
					continue
				}
			case p.sc != nil:
				coords = s.meta.shape.Coords(lin, coords[:0])
				if !p.sc.Contains(coords) {
					continue
				}
			}
			out.matches = append(out.matches, query.Match{Index: lin})
		}
		filter := clk.ChargeCPU(pfs.CPUBit, bits) + clk.ChargeCPU(pfs.CPUMatch, int64(len(out.matches)-from))
		if p.cuts != nil || p.sc != nil {
			filter += clk.ChargeCPU(pfs.CPUPoint, bits)
		}
		out.filter += filter
		out.time.Reconstruct += filter
		out.nodesRead++
	}
	return nil
}

// runRank executes one rank's tasks, grouped by bin so each bin's files
// are opened once and reads coalesce. Cancellation is checked at every
// bin boundary: a bin is the engine's unit of I/O, so that is the
// soonest point at which stopping saves PFS work.
func (s *Store) runRank(ctx context.Context, clk *pfs.Clock, p *plan, tasks []task, out *rankOut) error {
	if len(tasks) == 0 {
		return nil
	}
	// The plan bounds the rank's answer: a unit contributes at most its
	// point count, and exactly that when nothing filters it; the
	// predicate's own limit bounds it as well.
	var points int64
	for _, t := range tasks {
		points += int64(s.meta.bins[t.bin].units[t.unit].count)
	}
	out.matches = slices.Grow(out.matches, int(min(points, p.limit)))
	out.sc.setGrid(s.meta.shape)
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].bin == tasks[lo].bin {
			hi++
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: query canceled before bin %d: %w", tasks[lo].bin, err)
		}
		if err := s.runBin(ctx, clk, p, tasks[lo:hi], out); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// runBin handles one rank's tasks within a single bin, in six stages
// that each pay their fixed costs once for the bin: probe the decode
// cache for every unit; read the positional indices of the units it
// missed (a warm bin opens no file); fill the offsets arena, copying the
// units found and decoding the rest (a position predicate lowers the
// units it selects nothing in to level 0: they need no values), and let
// the cache keep the units that need no values; read the data pieces of
// the units whose values are still missing; decode those values unit by
// unit through the cache's single-flight path, so concurrent queries
// decompress each unit once and its offsets and values enter the cache
// as one entry; then filter and emit the whole bin. Each stage adds to
// the rank's totals, which execute traces once per rank: a bin opens no
// span of its own.
func (s *Store) runBin(ctx context.Context, clk *pfs.Clock, p *plan, tasks []task, out *rankOut) error {
	bin := tasks[0].bin
	if s.hookBeforeBin != nil {
		s.hookBeforeBin(bin)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: query canceled at bin %d: %w", bin, err)
	}
	out.bins++
	out.units += len(tasks)
	sc := out.sc
	bm := &s.meta.bins[bin]

	// Cache probe: a unit found whole needs no read at all, one whose
	// offsets alone are resident needs no index read.
	units := sc.taskUnits(tasks, p.level)
	if s.decodeCache != nil {
		out.cacheHits += s.decodeCache.Probe(s.prefix, bin, units)
	}

	// Index read, of the units the probe left without offsets.
	sc.idxExtents = sc.idxExtents[:0]
	for i, t := range tasks {
		if units[i].Offsets == nil {
			u := &bm.units[t.unit]
			sc.idxExtents = append(sc.idxExtents, pfs.Extent{Off: u.indexOff, Len: u.indexLen})
		}
	}
	var idxMap *pfs.ExtentMap
	if len(sc.idxExtents) > 0 {
		var err error
		if idxMap, err = s.readFile(clk, binIndexPath(s.prefix, bin), sc.idxExtents, out); err != nil {
			return err
		}
	}

	// Reassemble: every unit's offsets into the bin's arena.
	if err := s.decodeBinOffsets(clk, p, tasks, idxMap, out); err != nil {
		return err
	}

	// The units the probe did not serve: those at level 0 need no values
	// and are settled with the cache now; the rest list their data pieces.
	sc.dataExtents = sc.dataExtents[:0]
	keep := false
	for i, t := range tasks {
		switch u := &units[i]; {
		case u.Hit:
		case u.Level == 0:
			keep = true
		default:
			sc.dataExtents = bm.units[t.unit].appendPieces(sc.dataExtents, p.pieces)
		}
	}
	if keep && s.decodeCache != nil {
		out.cacheHits += s.decodeCache.Keep(s.prefix, bin, units)
	}

	// Data read and decode, of the units whose values are missing.
	if len(sc.dataExtents) > 0 {
		dataMap, err := s.readFile(clk, binDataPath(s.prefix, bin), sc.dataExtents, out)
		if err != nil {
			return err
		}
		for i, t := range tasks {
			if u := &units[i]; !u.Hit && u.Level > 0 {
				if err := s.unitValues(ctx, clk, bin, &bm.units[t.unit], u, dataMap, out); err != nil {
					return fmt.Errorf("core: bin %d unit %d data: %w", bin, t.unit, err)
				}
			}
		}
	}

	// Filter: map intra-chunk offsets to global indices and emit. A data
	// task at level 0 holds no selected position.
	var points int64
	from := len(out.matches)
	for i, t := range tasks {
		if t.needData && units[i].Level == 0 {
			continue
		}
		points += s.emitUnit(t, &bm.units[t.unit], p, sc.run(i), units[i].Values, out)
	}
	filter := clk.ChargeCPU(pfs.CPUPoint, points) + clk.ChargeCPU(pfs.CPUMatch, int64(len(out.matches)-from))
	out.filter += filter
	out.time.Reconstruct += filter
	return nil
}

// readFile opens one of the store's subfiles and reads the extents in
// one batch: the open belongs to the fetch, which adds to the rank's
// bytes, virtual I/O time and fetch wall time.
func (s *Store) readFile(clk *pfs.Clock, path string, extents []pfs.Extent, out *rankOut) (*pfs.ExtentMap, error) {
	t0 := clk.Now()
	wall0 := time.Now()
	if err := s.fs.Open(clk, path); err != nil {
		return nil, err
	}
	m, n, err := s.fs.ReadExtents(clk, path, extents)
	if err != nil {
		return nil, err
	}
	out.bytes += n
	out.time.IO += clk.Now() - t0
	out.fetchWall += time.Since(wall0)
	return m, nil
}

// appendPieces appends the extents of the unit's first n data pieces:
// what a read of the unit fetches and what Explain prices.
func (u *unitMeta) appendPieces(dst []pfs.Extent, n int) []pfs.Extent {
	for i := 0; i < n; i++ {
		dst = append(dst, pfs.Extent{Off: u.pieceOff[i], Len: u.pieceLen[i]})
	}
	return dst
}

// decodeBinOffsets fills the rank's offsets arena with every task's
// offsets: copied when the cache probe found them, decoded from idxMap
// otherwise (charged to the reassemble component), after which each
// decoded unit's Offsets point at its run for the cache to keep. Under a
// position predicate it also looks the points up: a unit holding no
// selected position is lowered to level 0, as it needs no values.
func (s *Store) decodeBinOffsets(clk *pfs.Clock, p *plan, tasks []task, idxMap *pfs.ExtentMap, out *rankOut) error {
	sc := out.sc
	sc.offsets, sc.ends = sc.offsets[:0], sc.ends[:0]
	bm := &s.meta.bins[tasks[0].bin]
	var decoded, probed int64
	for i, t := range tasks {
		u := &bm.units[t.unit]
		from := len(sc.offsets)
		if cached := sc.units[i].Offsets; cached != nil {
			sc.offsets = append(sc.offsets, cached...)
		} else {
			decoded += int64(u.count)
			raw, err := idxMap.Slice(u.indexOff, u.indexLen)
			if err == nil {
				sc.offsets, err = decodeOffsets(sc.offsets, raw, int(u.count))
			}
			if err != nil {
				return fmt.Errorf("core: bin %d unit %d index: %w", t.bin, t.unit, err)
			}
		}
		if p.positions != nil {
			n, hit := s.firstSelected(u, sc.offsets[from:], p.positions, sc)
			probed += int64(n)
			if !hit {
				sc.units[i].Level = 0
			}
		}
		sc.ends = append(sc.ends, len(sc.offsets))
	}
	for i := range tasks {
		if sc.units[i].Offsets == nil {
			sc.units[i].Offsets = sc.run(i)
		}
	}
	reassemble := clk.ChargeCPU(pfs.CPUOffset, decoded) + clk.ChargeCPU(pfs.CPUPoint, probed)
	out.reassemble += reassemble
	out.time.Reconstruct += reassemble
	return nil
}

// enterChunk loads chunk id's region and widths into the scratch and
// returns the global linear index of the chunk's origin.
func (sc *rankScratch) enterChunk(chunks *grid.Chunking, id int64) (base int64) {
	chunks.ChunkRegionInto(id, &sc.reg)
	for d := range sc.widths {
		base += int64(sc.reg.Lo[d]) * sc.strides[d]
		sc.widths[d] = int64(sc.reg.Hi[d] - sc.reg.Lo[d])
	}
	return base
}

// firstSelected reports whether any of the unit's points (given as its
// intra-chunk offsets) is set in positions, and how many points it
// looked up to find out.
func (s *Store) firstSelected(u *unitMeta, offsets []int32, positions *bitmap.Bitmap, sc *rankScratch) (int, bool) {
	base := sc.enterChunk(s.chunks, u.chunkID)
	for i, off := range offsets {
		rem, lin := int64(off), base
		for d := len(sc.widths) - 1; d >= 0; d-- {
			lin += (rem % sc.widths[d]) * sc.strides[d]
			rem /= sc.widths[d]
		}
		if positions.Get(lin) {
			return i + 1, true
		}
	}
	return len(offsets), false
}

// unitValues decodes the unit's values at u.Level into u.Values:
// through the decode cache's single-flight path, which keeps them with
// u.Offsets as one entry, or directly when no cache is attached. It
// updates the rank's decompress time, block count, and cache-hit count.
// The decode is charged only where it runs, inside the flight's compute,
// so a query served by another query's flight pays no decompress.
func (s *Store) unitValues(ctx context.Context, clk *pfs.Clock, bin int, um *unitMeta, u *cache.Unit, dataMap *pfs.ExtentMap, out *rankOut) error {
	var decompress float64
	decode := func() (values []float64, err error) {
		values, err = s.decodeUnitValues(um, u.Level, dataMap, out.sc)
		decompress = s.chargeDecode(clk, um, u.Level)
		return values, err
	}
	var hit bool
	var err error
	if s.decodeCache == nil {
		u.Values, err = decode()
	} else {
		hit, err = s.decodeCache.Fill(ctx, s.prefix, bin, u, decode)
	}
	if err != nil {
		return err
	}
	if hit {
		// Another query's decode (or an insert racing the probe) served
		// this unit; the data bytes were read but no CPU was spent.
		out.cacheHits++
	} else {
		out.time.Decompress += decompress
		out.blocks++
	}
	return nil
}

// emitUnit appends one unit's qualifying matches: offsets are its
// decoded intra-chunk offsets, values its decoded values (nil when the
// unit is answered from the index alone), the plan's predicate decides.
// A plan with row ranges emits the chunk once through each cut it
// overlaps, so the per-point loop tests one region either way. It
// returns the number of points tested.
func (s *Store) emitUnit(t task, u *unitMeta, p *plan, offsets []int32, values []float64, out *rankOut) int64 {
	if len(offsets) == 0 {
		return 0
	}
	base := out.sc.enterChunk(s.chunks, u.chunkID)
	if p.cuts == nil {
		s.emitPoints(t, p, p.sc, base, offsets, values, out)
		return int64(len(offsets))
	}
	var tested int64
	lo, hi := out.sc.reg.Lo[0], out.sc.reg.Hi[0]
	for i := range p.cuts {
		c := &p.cuts[i]
		if c.Lo[0] >= hi {
			break
		}
		if c.Hi[0] > lo {
			s.emitPoints(t, p, c, base, offsets, values, out)
			tested += int64(len(offsets))
		}
	}
	return tested
}

// emitPoints is emitUnit's filter-and-emit loop over the unit's points
// inside sc (nil: anywhere), with the chunk entered at base. The chunk's
// global strides are precomputed so the per-point mapping avoids
// repeated bounds-checked Linear calls — this loop dominates
// high-selectivity region queries.
func (s *Store) emitPoints(t task, p *plan, sc *grid.Region, base int64, offsets []int32, values []float64, out *rankOut) {
	reg := out.sc.reg
	chunkInSC := sc == nil || regionInside(reg, *sc)
	dims := s.meta.shape.Dims()
	global, strides, widths := out.sc.global, out.sc.strides, out.sc.widths
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
		if !chunkInSC && !sc.Contains(global) {
			continue
		}
		if p.positions != nil && !p.positions.Get(lin) {
			continue
		}
		var v float64
		if values != nil {
			v = values[i]
			if t.filterVC && !p.vc.Contains(v) {
				continue
			}
		}
		m := query.Match{Index: lin}
		if !p.indexOnly {
			m.Value = v
		}
		out.matches = append(out.matches, m)
	}
}

// chargeDecode charges the model's price of decoding the unit at level
// (decodeUnitValues) and returns it: a float codec's per-unit and
// per-value cost, or each deflated plane's stream and bytes plus the
// values assembled.
func (s *Store) chargeDecode(clk *pfs.Clock, u *unitMeta, level int) float64 {
	count := int64(u.count)
	if s.meta.mode == ModeFloats {
		return clk.ChargeCPU(s.floatDecode[0], 1) + clk.ChargeCPU(s.floatDecode[1], count)
	}
	var streams, inflated int64
	for p := 0; p < plod.PlanesForLevel(level) && p < compressPlanes; p++ {
		if want := count * int64(plod.PlaneWidth(p)); u.pieceLen[p] != want {
			streams++
			inflated += want
		}
	}
	return clk.ChargeCPU(pfs.CPUInflateStream, streams) + clk.ChargeCPU(pfs.CPUInflate, inflated) +
		clk.ChargeCPU(pfs.CPUAssemble, count)
}

// decodeUnitValues reconstructs the unit's values at the given PLoD
// level (planes mode) or in full (floats mode). The returned slice is
// freshly allocated — the decode cache may keep it — while the planes
// it is assembled from inflate into sc. Every plane is inflated through
// the bounded decoder: the metadata says how many bytes it holds, so a
// corrupt piece fails one byte past that instead of allocating without
// limit.
func (s *Store) decodeUnitValues(u *unitMeta, level int, dataMap *pfs.ExtentMap, sc *rankScratch) ([]float64, error) {
	count := int(u.count)
	if s.meta.mode == ModeFloats {
		raw, err := dataMap.Slice(u.pieceOff[0], u.pieceLen[0])
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
		raw, err := dataMap.Slice(u.pieceOff[p], u.pieceLen[p])
		if err != nil {
			return nil, err
		}
		want := count * plod.PlaneWidth(p)
		// A compressed piece is strictly shorter than its raw form.
		if p < compressPlanes && len(raw) != want {
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

// regionInside reports whether inner is fully contained in outer.
func regionInside(inner, outer grid.Region) bool {
	for d := range inner.Lo {
		if inner.Lo[d] < outer.Lo[d] || inner.Hi[d] > outer.Hi[d] {
			return false
		}
	}
	return true
}
