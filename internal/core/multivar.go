package core

import (
	"context"
	"fmt"
	"time"

	"mloc/internal/bitmap"
	"mloc/internal/mpi"
	"mloc/internal/obs"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/query"
)

// MultiVarRequest describes the paper's multi-variable access pattern
// (§III-D4): spatial positions are selected by constraints on one
// variable, then other variables' values are fetched at those
// positions. E.g. "temperature where humidity > 90%".
type MultiVarRequest struct {
	// Select is the request evaluated on the selecting variable; its
	// matches define the position set. It is forced to IndexOnly
	// internally (only positions are needed).
	Select query.Request
	// FetchVars names the variables whose values are returned at the
	// selected positions.
	FetchVars []string
}

// MultiVarResult maps each fetched variable to its matches.
type MultiVarResult struct {
	// Positions is the bitmap of selected linear indices.
	Positions *bitmap.Bitmap
	// Values[var] holds the fetched matches for each requested variable.
	Values map[string][]query.Match
	// Time is the end-to-end component breakdown (selection plus the
	// slowest fetch).
	Time query.Components
	// BytesRead sums PFS traffic across both phases.
	BytesRead int64
}

// MultiVarQuery runs the two-phase multi-variable access across the
// named stores: phase 1 answers the selection as a region-only query on
// selectVar and synchronizes the resulting position bitmap (the paper's
// light-weight bitmap index exchange); phase 2 retrieves each fetch
// variable's values at those positions.
//
// All stores must share one grid shape. It is MultiVarQueryContext
// with a background context.
func MultiVarQuery(stores map[string]*Store, selectVar string, req MultiVarRequest, ranks int) (*MultiVarResult, error) {
	return MultiVarQueryContext(context.Background(), stores, selectVar, req, ranks)
}

// MultiVarQueryContext is MultiVarQuery under a context: cancellation
// propagates into both the selection query and every per-variable
// fetch.
func MultiVarQueryContext(ctx context.Context, stores map[string]*Store, selectVar string, req MultiVarRequest, ranks int) (*MultiVarResult, error) {
	sel, ok := stores[selectVar]
	if !ok {
		return nil, fmt.Errorf("core: unknown selecting variable %q", selectVar)
	}
	for _, fv := range req.FetchVars {
		st, ok := stores[fv]
		if !ok {
			return nil, fmt.Errorf("core: unknown fetch variable %q", fv)
		}
		if !st.Shape().Equal(sel.Shape()) {
			return nil, fmt.Errorf("core: variable %q shape %v differs from %q shape %v",
				fv, st.Shape(), selectVar, sel.Shape())
		}
	}

	// Phase 1: region-only selection. Ranks each produce a partial
	// bitmap; an all-reduce OR synchronizes them (paper: "bitmaps
	// derived by region queries from all processes are synchronized").
	phase1 := req.Select
	phase1.IndexOnly = true
	sctx, ss := obs.StartSpan(ctx, "select")
	ss.SetString("var", selectVar)
	selRes, err := sel.QueryContext(sctx, &phase1, ranks)
	if err != nil {
		ss.End()
		return nil, fmt.Errorf("core: selection on %q: %w", selectVar, err)
	}
	n := sel.Shape().Elems()
	positions := bitmap.New(n)
	for _, m := range selRes.Matches {
		positions.Set(m.Index)
	}
	ss.SetInt("positions", int64(len(selRes.Matches)))
	ss.SetFloat("virt_total_s", selRes.Time.Total())
	ss.End()

	out := &MultiVarResult{
		Positions: positions,
		Values:    make(map[string][]query.Match, len(req.FetchVars)),
		Time:      selRes.Time,
		BytesRead: selRes.BytesRead,
	}

	// Phase 2: value retrieval on each fetch variable at the selected
	// positions. The same index positions apply to every variable
	// because the variables share the grid (paper: "indices derived by
	// the first step can be directly used on other variables").
	var fetchSlowest query.Components
	for _, fv := range req.FetchVars {
		fctx, vs := obs.StartSpan(ctx, "fetch_var")
		vs.SetString("var", fv)
		fRes, err := stores[fv].FetchAtContext(fctx, positions, ranks)
		if err != nil {
			vs.End()
			return nil, fmt.Errorf("core: fetch of %q: %w", fv, err)
		}
		out.Values[fv] = fRes.Matches
		out.BytesRead += fRes.BytesRead
		if fRes.Time.Total() > fetchSlowest.Total() {
			fetchSlowest = fRes.Time
		}
		vs.SetInt("matches", int64(len(fRes.Matches)))
		vs.SetFloat("virt_total_s", fRes.Time.Total())
		vs.End()
	}
	out.Time.Add(fetchSlowest)
	return out, nil
}

// FetchAt retrieves the variable's values at the positions set in the
// bitmap, reading only the storage units that contain selected points.
// It is FetchAtContext with a background context.
func (s *Store) FetchAt(positions *bitmap.Bitmap, ranks int) (*query.Result, error) {
	return s.FetchAtContext(context.Background(), positions, ranks)
}

// FetchAtContext is FetchAt under a context; cancellation is honored at
// every bin boundary, mirroring QueryContext.
func (s *Store) FetchAtContext(ctx context.Context, positions *bitmap.Bitmap, ranks int) (*query.Result, error) {
	if positions.Len() != s.meta.shape.Elems() {
		return nil, fmt.Errorf("core: bitmap length %d != grid %d", positions.Len(), s.meta.shape.Elems())
	}
	if ranks < 1 {
		return nil, fmt.Errorf("core: ranks %d < 1", ranks)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: fetch canceled: %w", err)
	}

	// Determine the chunks containing selected positions.
	chunkHits := make(map[int64]bool)
	coords := make([]int, s.meta.shape.Dims())
	positions.Each(func(i int64) {
		coords = s.meta.shape.Coords(i, coords[:0])
		chunkHits[s.chunks.ChunkIDOf(coords)] = true
	})

	// Build tasks over every bin's units in those chunks (a position's
	// bin is unknown until its index entry is seen, so all bins of a
	// hit chunk are candidates — their per-unit indices are small).
	var tasks []task
	for b := range s.meta.bins {
		bm := &s.meta.bins[b]
		for ui := range bm.units {
			if chunkHits[bm.units[ui].chunkID] {
				tasks = append(tasks, task{bin: b, unit: ui, needData: true})
			}
		}
	}
	perRank := s.assignTasks(tasks, ranks)

	qs := queryScratchPool.Get().(*queryScratch)
	defer queryScratchPool.Put(qs)
	outs := qs.begin(ranks)
	defer qs.end() // runs before the Put, after the gather
	clks := s.fs.NewClocks(ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		rctx, rs := obs.StartSpan(ctx, "rank")
		rs.SetInt("rank", int64(c.Rank()))
		rerr := s.fetchRank(rctx, clks[c.Rank()], perRank[c.Rank()], positions, &outs[c.Rank()])
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
	return gatherRanks(outs), nil
}

// fetchRank processes a rank's fetch tasks bin by bin; per-bin scratch
// (the coordinate buffers) is shared across bins.
func (s *Store) fetchRank(ctx context.Context, clk *pfs.Clock, tasks []task, positions *bitmap.Bitmap, out *rankOut) error {
	out.sc.setGrid(s.meta.shape)
	local := make([]int, s.meta.shape.Dims())
	global := out.sc.global
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].bin == tasks[lo].bin {
			hi++
		}
		binTasks := tasks[lo:hi]
		lo = hi
		if err := s.fetchBin(ctx, clk, binTasks, positions, local, global, out); err != nil {
			return err
		}
	}
	return nil
}

// fetchBin handles one rank's fetch tasks within a single bin: read the
// unit indices first, and only read data for units that actually
// contain selected positions (and, with a decode cache attached, are
// not already resident).
func (s *Store) fetchBin(ctx context.Context, clk *pfs.Clock, binTasks []task, positions *bitmap.Bitmap, local, global []int, out *rankOut) error {
	bin := binTasks[0].bin
	if s.hookBeforeBin != nil {
		s.hookBeforeBin(bin)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: fetch canceled at bin %d: %w", bin, err)
	}
	_, bs := obs.StartSpan(ctx, "bin")
	defer bs.End()
	bs.SetInt("bin", int64(bin))
	bs.SetInt("units", int64(len(binTasks)))
	before := *out
	sc := out.sc
	dims := s.meta.shape.Dims()
	bm := &s.meta.bins[bin]
	idxPath := binIndexPath(s.prefix, bin)
	dataPath := binDataPath(s.prefix, bin)

	t0 := clk.Now()
	wall0 := time.Now()
	if err := s.fs.Open(clk, idxPath); err != nil {
		return err
	}
	sc.idxExtents = sc.idxExtents[:0]
	for _, t := range binTasks {
		u := &bm.units[t.unit]
		sc.idxExtents = append(sc.idxExtents, extent{u.indexOff, u.indexLen})
	}
	idxMap, ioBytes, err := readCoalesced(s.fs, clk, idxPath, sc.idxExtents)
	if err != nil {
		return err
	}
	out.bytes += ioBytes
	out.time.IO += clk.Now() - t0

	// Decode indices; keep only units with selected positions. This is
	// reassembly work: offset decoding plus position lookups.
	type hitUnit struct {
		t    task
		hits []int // indices into the unit's point list
		offs int   // where the unit's offsets start in sc.offsets
	}
	var hits []hitUnit
	var decodeErr error
	sc.offsets = sc.offsets[:0]
	reassemble := clk.MeasureCPU(func() {
		for _, t := range binTasks {
			u := &bm.units[t.unit]
			raw, err := idxMap.slice(u.indexOff, u.indexLen)
			if err != nil {
				decodeErr = err
				return
			}
			from := len(sc.offsets)
			sc.offsets, err = decodeOffsets(sc.offsets, raw, int(u.count))
			if err != nil {
				decodeErr = err
				return
			}
			s.chunks.ChunkRegionInto(u.chunkID, &sc.reg)
			reg := sc.reg
			var hu hitUnit
			for i, off := range sc.offsets[from:] {
				localCoords(reg, int64(off), local)
				for d := 0; d < dims; d++ {
					global[d] = reg.Lo[d] + local[d]
				}
				if positions.Get(s.meta.shape.Linear(global)) {
					hu.hits = append(hu.hits, i)
				}
			}
			if hu.hits != nil {
				hu.t = t
				hu.offs = from
				hits = append(hits, hu)
			} else {
				sc.offsets = sc.offsets[:from]
			}
		}
	})
	out.reassemble += reassemble
	out.time.Reconstruct += reassemble
	if decodeErr != nil {
		return decodeErr
	}
	if len(hits) != 0 {
		// Probe the decode cache: resident units need no data read.
		cached := sc.taskValues(len(hits))
		missing := len(hits)
		if s.decodeCache != nil {
			for i, h := range hits {
				if vals, ok := s.decodeCache.Get(s.cacheKey(bin, h.t.unit, plod.MaxLevel)); ok {
					cached[i] = vals
					out.cacheHits++
					missing--
				}
			}
		}

		// Read data only for hit units the cache could not serve.
		var dataMap *extentMap
		if missing > 0 {
			t1 := clk.Now()
			if err := s.fs.Open(clk, dataPath); err != nil {
				return err
			}
			sc.dataExtents = sc.dataExtents[:0]
			for i, h := range hits {
				if cached[i] != nil {
					continue
				}
				u := &bm.units[h.t.unit]
				if s.meta.mode == ModePlanes {
					for p := 0; p < plod.NumPlanes; p++ {
						sc.dataExtents = append(sc.dataExtents, extent{u.pieceOff[p], u.pieceLen[p]})
					}
				} else {
					sc.dataExtents = append(sc.dataExtents, extent{u.pieceOff[0], u.pieceLen[0]})
				}
			}
			var ioBytes int64
			var err error
			dataMap, ioBytes, err = readCoalesced(s.fs, clk, dataPath, sc.dataExtents)
			if err != nil {
				return err
			}
			out.bytes += ioBytes
			out.time.IO += clk.Now() - t1
		}

		for i, h := range hits {
			u := &bm.units[h.t.unit]
			values := cached[i]
			if values == nil {
				var err error
				if values, err = s.unitValues(ctx, clk, h.t, u, plod.MaxLevel, dataMap, out); err != nil {
					return err
				}
			}
			s.chunks.ChunkRegionInto(u.chunkID, &sc.reg)
			reg := sc.reg
			filter := clk.MeasureCPU(func() {
				for _, i := range h.hits {
					localCoords(reg, int64(sc.offsets[h.offs+i]), local)
					for d := 0; d < dims; d++ {
						global[d] = reg.Lo[d] + local[d]
					}
					out.matches = append(out.matches, query.Match{
						Index: s.meta.shape.Linear(global),
						Value: values[i],
					})
				}
			})
			out.filter += filter
			out.time.Reconstruct += filter
		}
	}
	bs.Event("fetch", time.Since(wall0), out.time.IO-before.time.IO).
		SetInt("bytes", out.bytes-before.bytes)
	bs.Event("decode", 0, out.time.Decompress-before.time.Decompress).
		SetInt("blocks", int64(out.blocks-before.blocks))
	bs.Event("reassemble", 0, out.reassemble-before.reassemble)
	bs.Event("filter", 0, out.filter-before.filter).
		SetInt("matches", int64(len(out.matches)-len(before.matches)))
	bs.SetInt("cache_hits", int64(out.cacheHits-before.cacheHits))
	return nil
}
