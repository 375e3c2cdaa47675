package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"mloc/internal/binning"
	"mloc/internal/compress"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/obs"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/sfc"
)

// Build ingests one variable through the MLOC multi-level pipeline and
// writes the per-bin subfiles plus metadata to the PFS under prefix.
// PFS write time is charged to clk, and so is the compute of binning,
// encoding and indexing, modelled from the rate table of pfs.CPU as
// queries are, reproducing the paper's in-situ processing-pipeline
// accounting.
//
// Both passes fan out over Config.BuildWorkers workers (pass 1 over
// chunks, pass 2 over bins) while committing results in deterministic
// storage order, so the produced store is byte-identical for every
// worker count. Each pass charges its modelled compute divided by its
// effective worker count (DESIGN.md cost-model notes), so a build's
// virtual time depends on its input and configuration, never on the
// host's load.
func Build(fs *pfs.Sim, clk *pfs.Clock, prefix string, shape grid.Shape, data []float64, cfg Config) (*Store, error) {
	return BuildWithSampleContext(context.Background(), fs, clk, prefix, shape, data, nil, cfg)
}

// BuildContext is Build under a context. The context carries the span
// for tracing (obs.StartSpan): when it holds an active span, the build
// records per-pass spans with per-bin and per-level events carrying the
// compute each charged. Cancellation is observed
// between bin commits in pass 2; a pass already fanned out runs its
// in-flight work to completion.
func BuildContext(ctx context.Context, fs *pfs.Sim, clk *pfs.Clock, prefix string, shape grid.Shape, data []float64, cfg Config) (*Store, error) {
	return BuildWithSampleContext(ctx, fs, clk, prefix, shape, data, nil, cfg)
}

// BuildWithSample is Build with an explicit binning sample: the
// equal-frequency boundaries are estimated from sample instead of from
// data itself. Passing a synthetic sample changes the effective binning
// strategy (the binning ablation feeds a uniform ramp to obtain
// equal-width bins); passing nil samples from data.
func BuildWithSample(fs *pfs.Sim, clk *pfs.Clock, prefix string, shape grid.Shape, data, sample []float64, cfg Config) (*Store, error) {
	return BuildWithSampleContext(context.Background(), fs, clk, prefix, shape, data, sample, cfg)
}

// BuildWithSampleContext is BuildWithSample under a context, used for
// span tracing only (see BuildContext).
func BuildWithSampleContext(ctx context.Context, fs *pfs.Sim, clk *pfs.Clock, prefix string, shape grid.Shape, data, sample []float64, cfg Config) (*Store, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if int64(len(data)) != shape.Elems() {
		return nil, fmt.Errorf("core: %d values for shape %v", len(data), shape)
	}
	if prefix == "" {
		return nil, fmt.Errorf("core: empty prefix")
	}
	chunks, err := grid.NewChunking(shape, cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	curve, err := newChunkCurve(cfg.Curve, chunks)
	if err != nil {
		return nil, err
	}
	order := chunkStorageOrder(chunks, curve)

	// Level V: equal-frequency bin boundaries from a sample (paper
	// §IV-A1: boundaries from partial data, applied to the whole).
	if sample == nil {
		sample = datagen.Sample(data, cfg.SampleSize, 1)
	}
	scheme, err := binning.Build(binning.EqualFrequency, sample, cfg.NumBins)
	if err != nil {
		return nil, err
	}
	// The sampled boundaries need not cover the full data range, and
	// BinOf clamps out-of-range values into the edge bins — which would
	// let a constraint covering bin 0's (or the last bin's) nominal
	// interval classify it aligned and return the clamped values
	// unfiltered. Widen the outer bounds to the observed extremes so
	// every stored value lies inside its bin's nominal interval.
	lo, hi := dataRange(data)
	scheme = scheme.CoverRange(lo, hi)
	nbins := scheme.NumBins()

	// Pass 1: chunk the data (level S boundary definition), bin each
	// chunk's points (level V membership), fanned out over the worker
	// pool and merged in storage order. The pass charges its values and
	// the units they form, divided among its workers.
	_, binSpan := obs.StartSpan(ctx, "pass_binning")
	nw, charged := cfg.buildWorkers(len(order))
	perBin, units := binChunks(chunks, order, data, scheme, nbins, nw)
	binCPU := pfs.CPUSeconds(pfs.CPUBin, int64(len(data))) + pfs.CPUSeconds(pfs.CPUBinUnit, units)
	binSpan.AddVirt(clk.AdvanceCPU(binCPU / float64(charged)))
	binSpan.SetInt("chunks", int64(len(order)))
	binSpan.SetInt("workers", int64(nw))
	binSpan.End()

	// Pass 2: encode each bin's units (levels M + compression), lay out
	// the bin files per the configured order, and commit them to the
	// PFS in bin order.
	meta := &storeMeta{
		shape:     shape.Clone(),
		chunkSize: append([]int(nil), cfg.ChunkSize...),
		order:     cfg.Order,
		curve:     string(cfg.Curve),
		mode:      cfg.Mode,
		binBounds: append([]float64(nil), scheme.Bounds()...),
		bins:      make([]binMeta, nbins),
	}
	if cfg.Mode == ModePlanes {
		meta.codecName = cfg.ByteCodec.Name()
	} else {
		meta.codecName = cfg.FloatCodec.Name()
	}

	// Pass 2 span: per-bin events carry the compute each bin charged
	// (its modelled encode seconds divided among the workers) and its
	// committed sizes; the pass virtual time is the full clock delta
	// including the writes.
	nw, charged = cfg.buildWorkers(nbins)
	v1 := clk.Now()
	_, encSpan := obs.StartSpan(ctx, "pass_encode")
	encSpan.SetInt("bins", int64(nbins))
	encSpan.SetInt("workers", int64(nw))
	enc := encodeBins(meta, perBin, cfg, nw)
	for b := 0; b < nbins; b++ {
		if err := ctx.Err(); err != nil {
			encSpan.End()
			return nil, fmt.Errorf("core: build canceled before committing bin %d: %w", b, err)
		}
		e := &enc[b]
		if e.err != nil {
			encSpan.End()
			return nil, fmt.Errorf("core: bin %d: %w", b, e.err)
		}
		cpu := clk.AdvanceCPU(e.cpu / float64(charged))
		bm := &meta.bins[b]
		if err := fs.WriteFile(clk, binDataPath(prefix, b), e.data); err != nil {
			encSpan.End()
			return nil, err
		}
		if err := fs.WriteFile(clk, binIndexPath(prefix, b), e.index); err != nil {
			encSpan.End()
			return nil, err
		}
		es := encSpan.Event("bin", 0, cpu)
		es.SetInt("bin", int64(b))
		es.SetInt("bytes", bm.dataSize+bm.indexSize)
	}
	encSpan.AddVirt(clk.Now() - v1)
	encSpan.End()

	st, err := newStore(fs, prefix, meta, cfg.ByteCodec, cfg.FloatCodec)
	if err != nil {
		return nil, err
	}
	// Optional hierarchical V-level index: the inner nodes' bitmaps over
	// the same binned points, built and written serially so the store
	// stays byte-identical across worker counts.
	if cfg.HierarchicalIndex {
		v2 := clk.Now()
		_, vSpan := obs.StartSpan(ctx, "pass_vindex")
		st.vidx, err = buildVindex(fs, clk, prefix, st.tree, shape, chunks, perBin, vSpan)
		vSpan.AddVirt(clk.Now() - v2)
		vSpan.End()
		if err != nil {
			return nil, err
		}
	}

	if err := fs.WriteFile(clk, metaPath(prefix), meta.marshal()); err != nil {
		return nil, err
	}
	return st, nil
}

// rawUnit is a unit's points before encoding: the intra-chunk offsets
// (ascending) and the corresponding values.
type rawUnit struct {
	chunkID int64
	offsets []int32
	values  []float64
}

// dataRange returns the minimum and maximum of data, ignoring NaNs
// (+Inf/-Inf when every value is NaN, which CoverRange then ignores).
func dataRange(data []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// runTasks runs worker on n goroutines; each worker pulls tasks
// 0..tasks-1 off one shared counter with next, so tasks start in
// ascending order, and owns whatever scratch it sets up. n == 1 runs
// inline so a serial build pays no scheduling overhead.
func runTasks(n, tasks int, worker func(next func() (task int, ok bool))) {
	var counter atomic.Int64
	next := func() (int, bool) {
		t := int(counter.Add(1)) - 1
		return t, t < tasks
	}
	if n <= 1 {
		worker(next)
		return
	}
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		worker(next)
	}
	for w := 0; w < n; w++ {
		wg.Add(1)
		// The build worker pool is intra-rank compute fan-out, not an
		// SPMD rank: it shares one virtual clock, which the pass charges
		// its modelled compute divided by the pool width once the pool is
		// done, so the mpi/stage runtimes don't apply.
		go work()
	}
	wg.Wait()
}

// binnedChunk is one chunk's pass-1 result: the bins its points fall
// in (ascending) with the per-bin offset and value lists.
type binnedChunk struct {
	bins    []int32
	offsets [][]int32
	values  [][]float64
}

// binChunks runs pass 1 over nw workers: chunks are pulled off a shared
// counter by the worker pool (each worker owning its extraction and
// per-bin scratch arrays), and the per-chunk results are merged into
// perBin serially in storage order, so unit order inside every bin is
// exactly the serial build's. It also returns how many units it made.
func binChunks(chunks *grid.Chunking, order []int64, data []float64, scheme *binning.Scheme, nbins, nw int) ([][]rawUnit, int64) {
	results := make([]binnedChunk, len(order))
	runTasks(nw, len(order), func(next func() (int, bool)) {
		// Worker-owned scratch: the header arrays are reused across
		// chunks; the per-bin slices they point at escape into results,
		// so they reset to nil (not [:0]) each iteration.
		var chunkBuf []float64
		local := make([][]int32, nbins)
		localV := make([][]float64, nbins)
		for pos, ok := next(); ok; pos, ok = next() {
			chunkID := order[pos]
			chunkBuf = chunks.ExtractChunk(data, chunkID, chunkBuf[:0])
			for b := range local {
				local[b], localV[b] = nil, nil
			}
			for off, v := range chunkBuf {
				b := scheme.BinOf(v)
				local[b] = append(local[b], int32(off))
				localV[b] = append(localV[b], v)
			}
			rc := &results[pos]
			for b := 0; b < nbins; b++ {
				if len(local[b]) == 0 {
					continue
				}
				rc.bins = append(rc.bins, int32(b))
				rc.offsets = append(rc.offsets, local[b])
				rc.values = append(rc.values, localV[b])
			}
		}
	})
	perBin := make([][]rawUnit, nbins)
	var units int64
	for pos, chunkID := range order {
		rc := &results[pos]
		for k, b := range rc.bins {
			perBin[b] = append(perBin[b], rawUnit{chunkID: chunkID, offsets: rc.offsets[k], values: rc.values[k]})
		}
		units += int64(len(rc.bins))
	}
	return perBin, units
}

// encodedBin is one bin's pass-2 result, produced by a worker and
// committed by the caller in bin order. cpu is the modelled seconds of
// its encode at CPUScale 1.
type encodedBin struct {
	index []byte
	data  []byte
	cpu   float64
	err   error
}

// encodeBins runs pass 2: bins are pulled off a shared counter and
// encoded concurrently — positional index, PLoD split, plane-piece
// compression, and layout all happen worker-side with pooled scratch —
// leaving only the deterministic in-order commit to the caller. On the
// first error remaining bins are skipped; the caller reports the
// erroring bin with the lowest id (deterministic because bins are
// pulled in ascending order).
func encodeBins(meta *storeMeta, perBin [][]rawUnit, cfg Config, nw int) []encodedBin {
	out := make([]encodedBin, len(perBin))
	_, floatEncode := floatCPU(cfg.FloatCodec)
	var failed atomic.Bool
	runTasks(nw, len(perBin), func(next func() (int, bool)) {
		sc := encodeScratchPool.Get().(*encodeScratch)
		defer encodeScratchPool.Put(sc)
		for b, ok := next(); ok; b, ok = next() {
			if failed.Load() {
				continue
			}
			e := &out[b]
			bm := &meta.bins[b]
			units := perBin[b]
			n := int64(len(units))
			var values int64
			e.index, values = encodeBinIndex(bm, units)
			e.cpu = pfs.CPUSeconds(pfs.CPUOffsetUnit, n) + pfs.CPUSeconds(pfs.CPUOffsetEncode, values)
			switch cfg.Mode {
			case ModePlanes:
				var calls, deflated int64
				e.data, calls, deflated, e.err = encodePlanesBin(bm, units, cfg, sc)
				e.cpu += pfs.CPUSeconds(pfs.CPUSplitUnit, n) + pfs.CPUSeconds(pfs.CPUSplit, values) +
					pfs.CPUSeconds(pfs.CPUDeflateCall, calls) + pfs.CPUSeconds(pfs.CPUDeflate, deflated)
			case ModeFloats:
				e.data, e.err = encodeFloatsBin(bm, units, cfg)
				e.cpu += pfs.CPUSeconds(floatEncode[0], n) + pfs.CPUSeconds(floatEncode[1], values)
			}
			if e.err != nil {
				failed.Store(true)
			}
		}
	})
	return out
}

// encodeScratch is one encode worker's reusable state: the PLoD split
// buffers plus the piece-staging arena.
type encodeScratch struct {
	split plod.SplitScratch
	arena []byte
}

var encodeScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

// encodePlanesBin encodes the units' values as PLoD byte planes and
// lays them out as bm.place assigns. Pieces are staged into the scratch
// arena back to back in (unit, plane) order — compressed pieces are
// encoded straight into it, and the split planes never escape the
// scratch — so the only allocations left are the exactly-sized output
// buffer and the per-bin piece-extent slab. It also returns how many
// deflate calls it made and the bytes it fed them, for the model.
func encodePlanesBin(bm *binMeta, units []rawUnit, cfg Config, sc *encodeScratch) (data []byte, calls, deflated int64, err error) {
	arena := sc.arena[:0]
	defer func() { sc.arena = arena }()
	_, isZlib := cfg.ByteCodec.(*compress.Zlib)
	bm.setPieces(plod.NumPlanes)
	for j, u := range units {
		planes := sc.split.Split(u.values)
		for p := 0; p < plod.NumPlanes; p++ {
			mark := len(arena)
			if p < compressPlanes {
				// Store whichever form is strictly smaller (the reader
				// tells the forms apart by length); tiny or
				// incompressible pieces would otherwise inflate. A piece
				// whose compress.ZlibFloor reaches its length is stored
				// without trying: zlib could only lose.
				won := false
				if !isZlib || compress.ZlibFloor(planes[p]) < len(planes[p]) {
					if isZlib {
						calls++
						deflated += int64(len(planes[p]))
					}
					arena, err = compress.AppendBytes(cfg.ByteCodec, arena, planes[p])
					if err != nil {
						return nil, 0, 0, err
					}
					won = len(arena)-mark < len(planes[p])
				}
				if !won {
					arena = append(arena[:mark], planes[p]...)
				}
			} else {
				arena = append(arena, planes[p]...)
			}
			bm.units[j].pieceLen[p] = int64(len(arena) - mark)
		}
	}
	bm.place(cfg.Order.PlanesBeforeChunks())
	dataBuf := make([]byte, bm.dataSize)
	var from int64
	for j := range bm.units {
		u := &bm.units[j]
		for p, n := range u.pieceLen {
			copy(dataBuf[u.pieceOff[p]:], arena[from:from+n])
			from += n
		}
	}
	return dataBuf, calls, deflated, nil
}

// encodeFloatsBin encodes units with the float codec, one piece each,
// in chunk curve order, appending every piece directly into the bin's
// data buffer: with one piece per unit, that order is the layout
// bm.place assigns under either level order.
func encodeFloatsBin(bm *binMeta, units []rawUnit, cfg Config) ([]byte, error) {
	var dataBuf []byte
	bm.setPieces(1)
	for j, u := range units {
		mark := len(dataBuf)
		var err error
		dataBuf, err = compress.AppendFloats(cfg.FloatCodec, dataBuf, u.values)
		if err != nil {
			return nil, err
		}
		bm.units[j].pieceLen[0] = int64(len(dataBuf) - mark)
	}
	bm.place(cfg.Order.PlanesBeforeChunks())
	return dataBuf, nil
}

// newChunkCurve builds the configured curve sized for the chunk grid.
func newChunkCurve(kind sfc.CurveKind, chunks *grid.Chunking) (sfc.Curve, error) {
	gridShape := chunks.GridShape()
	maxSide := 0
	for _, s := range gridShape {
		if s > maxSide {
			maxSide = s
		}
	}
	return sfc.NewCurve(kind, gridShape.Dims(), sfc.OrderFor(uint64(maxSide)))
}

// chunkStorageOrder returns all chunk ids sorted by curve index — the
// level-S storage order within each bin.
func chunkStorageOrder(chunks *grid.Chunking, curve sfc.Curve) []int64 {
	gridShape := chunks.GridShape()
	n := chunks.NumChunks()
	type kv struct {
		key uint64
		id  int64
	}
	entries := make([]kv, n)
	coords := make([]int, 0, gridShape.Dims())
	ucoords := make([]uint32, gridShape.Dims())
	for id := int64(0); id < n; id++ {
		coords = gridShape.Coords(id, coords[:0])
		for d, c := range coords {
			ucoords[d] = uint32(c)
		}
		entries[id] = kv{key: curve.Index(ucoords), id: id}
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].key < entries[b].key })
	out := make([]int64, n)
	for i, e := range entries {
		out[i] = e.id
	}
	return out
}

func binDataPath(prefix string, bin int) string {
	return fmt.Sprintf("%s/bin%04d/data", prefix, bin)
}

func binIndexPath(prefix string, bin int) string {
	return fmt.Sprintf("%s/bin%04d/index", prefix, bin)
}

func metaPath(prefix string) string { return prefix + "/meta" }
