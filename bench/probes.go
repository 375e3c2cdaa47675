package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/cache"
	"mloc/internal/cluster/shardmap"
	"mloc/internal/compress"
	"mloc/internal/grid"
	"mloc/internal/mpi"
	"mloc/internal/obs"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/query"
	"mloc/internal/server"
	"mloc/internal/sfc"
)

// Probes time one public function of one layer in a loop, on inputs
// cut from the generated field. Each is reported under the workload
// that exercises its layer, so a trace run pays only for the probes
// that explain it.

// bulkValues is how many consecutive field values the throughput
// probes work on.
const bulkValues = 8192

// prober runs timed loops of at least dur each.
type prober struct {
	dur time.Duration
	m   metricSet
}

// newProber scales the 200 ms probe time down with -scale so smoke
// runs stay short.
func newProber(scale float64, m metricSet) *prober {
	if scale > 1 {
		scale = 1
	}
	dur := time.Duration(200 * scale * float64(time.Millisecond))
	if dur < time.Millisecond {
		dur = time.Millisecond
	}
	return &prober{dur: dur, m: m}
}

// nsPerCall calls fn in growing batches until dur has passed and
// returns the mean nanoseconds per call and the number of calls.
func (p *prober) nsPerCall(fn func()) (float64, int) {
	fn() // warm up: first-call allocations and cache misses are not the steady cost
	calls, batch := 0, 1
	start := time.Now()
	for {
		for i := 0; i < batch; i++ {
			fn()
		}
		calls += batch
		if el := time.Since(start); el >= p.dur {
			return float64(el.Nanoseconds()) / float64(calls), calls
		}
		if batch < 1<<20 {
			batch *= 2
		}
	}
}

// time records fn's mean cost under name, converted by div (1 for ns,
// 1e3 for us, 1e6 for ms).
func (p *prober) time(name string, div float64, fn func()) {
	ns, calls := p.nsPerCall(fn)
	p.m.set(name, ns/div, calls)
}

// rate records bytes/call ÷ time/call under name, in MB/s.
func (p *prober) rate(name string, bytesPerCall int, fn func()) {
	ns, calls := p.nsPerCall(fn)
	p.m.set(name, float64(bytesPerCall)/1e6/(ns/1e9), calls)
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("probe set-up failed: %v", err))
	}
}

// binSample is the prefix of the field the binning probes estimate bin
// boundaries from.
func binSample(s *storeSpec) []float64 {
	return s.data[:min(len(s.data), 1<<16)]
}

// meanUnitLen is the mean number of values per storage unit of a
// store: points ÷ (bins × chunks).
func meanUnitLen(s *storeSpec) int {
	chunks := 1
	for d, n := range s.shape {
		chunks *= (n + s.cfg.ChunkSize[d] - 1) / s.cfg.ChunkSize[d]
	}
	n := len(s.data) / (s.cfg.NumBins * chunks)
	if n < 1 {
		n = 1
	}
	return n
}

// decodeProbes: the codec decode side and PLoD assembly, plus the two
// layers a spatial query plans with (grid, sfc) and the PFS probes.
func (p *prober) decodeProbes(phi *storeSpec) {
	bulk := phi.data[:min(len(phi.data), bulkValues)]
	unit := phi.data[:meanUnitLen(phi)]
	p.byteCodecProbe("zlib", compress.NewZlib(compress.DefaultZlibLevel), bulk, unit, false)
	p.floatCodecProbe("isobar", compress.NewIsobar(compress.DefaultZlibLevel), bulk, unit, false)
	p.floatCodecProbe("isabela", compress.NewIsabela(compress.DefaultIsabelaConfig()), bulk, unit, false)

	planes := plod.Split(bulk)
	dst := make([]float64, 0, len(bulk))
	p.rate("plod.assemble_l7_mb_s", 8*len(bulk), func() { dst = plod.Assemble(planes[:], plod.MaxLevel, len(bulk), plod.FillCentered, dst[:0]) })
	p.rate("plod.assemble_l2_mb_s", 8*len(bulk), func() { dst = plod.Assemble(planes[:], 2, len(bulk), plod.FillCentered, dst[:0]) })

	chunks, err := grid.NewChunking(phi.shape, phi.cfg.ChunkSize)
	must(err)
	corner := phi.shape[0]/4 - 3 // off the chunk grid, like most request boxes
	side := subvolSide(phi)
	region, err := grid.NewRegion([]int{corner, corner}, []int{corner + side, corner + side})
	must(err)
	p.time("grid.overlapping_chunks_us", 1e3, func() { chunks.OverlappingChunks(region) })
	curve := sfc.MustHilbert(2, 4) // the 16×16 chunk grid
	coords := []uint32{5, 11}
	p.time("sfc.hilbert_index_ns", 1, func() { curve.Index(coords) })

	sim := pfs.New(pfs.DefaultConfig())
	clk := sim.NewClock()
	must(sim.WriteFile(clk, "probe/file", make([]byte, 1<<20)))
	off := int64(0)
	p.time("pfs.readat_4k_ns", 1, func() {
		if _, err := sim.ReadAt(clk, "probe/file", off, 4096); err != nil {
			panic(err)
		}
		off = (off + 4096*17) % (1<<20 - 4096)
	})
	p.m.set("pfs.measurecpu_scaling_2g", p.measureCPUScaling(sim, bulk), 0)
}

// measureCPUScaling compares how many fixed CPU sections per second
// two goroutines complete inside Clock.MeasureCPU, each on its own
// clock of one Sim, against one goroutine: 1.0 means the sections are
// serialized, 2.0 that they run in parallel.
func (p *prober) measureCPUScaling(sim *pfs.Sim, vals []float64) float64 {
	run := func(workers int) float64 {
		var wg sync.WaitGroup
		counts := make([]int, workers)
		sums := make([]float64, workers) // keeps the section's work observable
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			w := w
			go func() { //mlocvet:ignore spmd-goroutine -- the probe needs real concurrent MeasureCPU callers; joined by wg.Wait below
				defer wg.Done()
				clk := sim.NewClock()
				// Goroutine-local accumulators, stored once at the end: the
				// shared slices' slots sit on one cache line, and false sharing
				// would read as serialization.
				var sum float64
				count := 0
				for done := false; !done; done = time.Since(start) >= p.dur {
					clk.MeasureCPU(func() {
						for _, v := range vals {
							sum += v
						}
					})
					count++
				}
				sums[w], counts[w] = sum, count
			}()
		}
		wg.Wait()
		total := 0
		for _, c := range counts {
			total += c
		}
		return float64(total) / time.Since(start).Seconds()
	}
	one := run(1)
	return run(2) / one
}

func (p *prober) byteCodecProbe(name string, c compress.ByteCodec, bulk, unit []float64, encodeSide bool) {
	bulkPlane, unitPlane := plod.Split(bulk)[0], plod.Split(unit)[0]
	encBulk, err := c.EncodeBytes(bulkPlane)
	must(err)
	pre := "compress." + name + "."
	if encodeSide {
		p.rate(pre+"encode_mb_s", len(bulkPlane), func() {
			if _, err := c.EncodeBytes(bulkPlane); err != nil {
				panic(err)
			}
		})
		p.m.set(pre+"ratio", float64(len(bulkPlane))/float64(len(encBulk)), 0)
		return
	}
	encUnit, err := c.EncodeBytes(unitPlane)
	must(err)
	dst := make([]byte, 0, len(bulkPlane))
	p.rate(pre+"decode_mb_s", len(bulkPlane), func() {
		if dst, err = c.DecodeBytes(encBulk, dst[:0]); err != nil {
			panic(err)
		}
	})
	p.time(pre+"decode_unit_us", 1e3, func() {
		if dst, err = c.DecodeBytes(encUnit, dst[:0]); err != nil {
			panic(err)
		}
	})
}

func (p *prober) floatCodecProbe(name string, c compress.FloatCodec, bulk, unit []float64, encodeSide bool) {
	encBulk, err := c.EncodeFloats(bulk)
	must(err)
	pre := "compress." + name + "."
	if encodeSide {
		p.rate(pre+"encode_mb_s", 8*len(bulk), func() {
			if _, err := c.EncodeFloats(bulk); err != nil {
				panic(err)
			}
		})
		p.m.set(pre+"ratio", float64(8*len(bulk))/float64(len(encBulk)), 0)
		return
	}
	encUnit, err := c.EncodeFloats(unit)
	must(err)
	dst := make([]float64, 0, len(bulk))
	p.rate(pre+"decode_mb_s", 8*len(bulk), func() {
		if dst, err = c.DecodeFloats(encBulk, dst[:0]); err != nil {
			panic(err)
		}
	})
	p.time(pre+"decode_unit_us", 1e3, func() {
		if dst, err = c.DecodeFloats(encUnit, dst[:0]); err != nil {
			panic(err)
		}
	})
}

// encodeProbes: the build side — codec encode, plane split, and the
// bin-boundary estimate.
func (p *prober) encodeProbes(phi *storeSpec) {
	bulk := phi.data[:min(len(phi.data), bulkValues)]
	p.byteCodecProbe("zlib", compress.NewZlib(compress.DefaultZlibLevel), bulk, nil, true)
	p.floatCodecProbe("isobar", compress.NewIsobar(compress.DefaultZlibLevel), bulk, nil, true)
	p.floatCodecProbe("isabela", compress.NewIsabela(compress.DefaultIsabelaConfig()), bulk, nil, true)
	p.rate("plod.split_mb_s", 8*len(bulk), func() { plod.Split(bulk) })
	sample := binSample(phi)
	p.time("binning.build_ms", 1e6, func() {
		if _, err := binning.Build(binning.EqualFrequency, sample, numBins); err != nil {
			panic(err)
		}
	})
}

// indexProbes: what a region query on the hierarchical index leans on.
func (p *prober) indexProbes(phi *storeSpec) {
	sample := binSample(phi)
	scheme, err := binning.Build(binning.EqualFrequency, sample, numBins)
	must(err)
	tree, err := binning.NewTree(scheme, 4)
	must(err)
	// Bins 40 and 41, cut a little short at both ends: two boundary
	// leaves, everything else pruned.
	lo, _ := scheme.BinRange(40)
	_, hi := scheme.BinRange(41)
	vc := binning.ValueConstraint{Min: lo + (hi-lo)*0.1, Max: hi - (hi-lo)*0.1}
	p.time("binning.tree_select_us", 1e3, func() { tree.Select(vc) })
	i := 0
	p.time("binning.binof_ns", 1, func() {
		scheme.BinOf(sample[i])
		i = (i + 1) % len(sample)
	})

	// Two bins' worth of positions: about 2 % of the field, clustered
	// the way a smooth field clusters them.
	bm := bitmap.New(int64(len(phi.data)))
	set := 0
	for j, v := range phi.data {
		if v >= lo && v < hi {
			bm.Set(int64(j))
			set++
		}
	}
	rawBytes := len(phi.data) / 8
	wah := bitmap.Compress(bm)
	p.rate("bitmap.wah_compress_mb_s", rawBytes, func() { bitmap.Compress(bm) })
	p.rate("bitmap.wah_decompress_mb_s", rawBytes, func() { wah.Decompress() })
	ns, calls := p.nsPerCall(func() {
		it := wah.Bits()
		for _, ok := it.Next(); ok; _, ok = it.Next() {
		}
	})
	if set > 0 {
		p.m.set("bitmap.wah_iter_ns_per_bit", ns/float64(set), calls)
	}
	p.m.set("bitmap.wah_ratio", float64(rawBytes)/float64(wah.SizeBytes()), 0)
}

// fixedCostProbes: per-request costs that do not scale with the data —
// what is left when the working set is cached.
func (p *prober) fixedCostProbes(phi *storeSpec) {
	unit := phi.data[:meanUnitLen(phi)]
	hot, err := cache.New(1 << 20)
	must(err)
	keys := make([]cache.Key, 256)
	for i := range keys {
		keys[i] = cache.Key{Store: "probe", Bin: i % numBins, Unit: i, Level: plod.MaxLevel}
		hot.Put(keys[i], unit)
	}
	i := 0
	p.time("cache.get_hit_ns", 1, func() {
		hot.Get(keys[i&255])
		i++
	})
	// 16 shards × 4 KiB: a few dozen units fit a shard, so every insert
	// of a new key evicts.
	cold, err := cache.New(64 << 10)
	must(err)
	ctx := context.Background()
	next := 0
	p.time("cache.miss_insert_evict_ns", 1, func() {
		next++
		if _, _, err := cold.GetOrCompute(ctx, cache.Key{Store: "probe", Unit: next}, func() ([]float64, error) { return unit, nil }); err != nil {
			panic(err)
		}
	})

	p.time("mpi.run4_us", 1e3, func() {
		if err := mpi.Run(defaultRanks, func(c *mpi.Comm) error { return c.Barrier() }); err != nil {
			panic(err)
		}
	})

	const spansPerTrace = 8
	tracer := obs.NewTracer(obs.DefaultTraceCapacity)
	ns, calls := p.nsPerCall(func() {
		tctx, root := tracer.StartTrace(ctx, "query")
		for s := 0; s < spansPerTrace; s++ {
			_, sp := obs.StartSpan(tctx, "rank")
			sp.SetInt("rank", int64(s))
			sp.End()
		}
		root.End()
	})
	p.m.set("obs.trace_span_ns", ns/(spansPerTrace+1), calls*(spansPerTrace+1))
	hist := obs.NewRegistry().Histogram("mloc_probe_seconds", "probe", obs.DefSecondsBuckets())
	v := 0.0
	p.time("obs.hist_observe_ns", 1, func() {
		hist.Observe(v)
		v += 1e-4
		if v > 1 {
			v = 0
		}
	})
	qlog := obs.NewQueryLog(obs.DefaultQueryLogCapacity)
	rec := obs.QueryRecord{Store: "planes", Var: "phi_col", Selectivity: "narrow", Outcome: "ok", Matches: 1024, UnixMS: 1}
	p.time("obs.querylog_append_ns", 1, func() { qlog.Append(rec) })

	// A span tree the size a 4-rank query leaves behind.
	tctx, root := tracer.StartTrace(ctx, "query")
	for r := 0; r < defaultRanks; r++ {
		rctx, rs := obs.StartSpan(tctx, "rank")
		for _, name := range []string{"fetch", "decode", "reassemble", "filter"} {
			_, sp := obs.StartSpan(rctx, name)
			sp.AddVirt(1e-3)
			sp.End()
		}
		rs.End()
	}
	id := root.TraceID()
	root.End()
	dump, ok := tracer.DumpByID(id)
	if !ok {
		panic("probe set-up failed: trace not retained")
	}
	p.time("obs.trace_wire_encode_us", 1e3, func() {
		if _, err := obs.EncodeTraceWire(dump, obs.DefaultMaxWireBytes); err != nil {
			panic(err)
		}
	})
}

// routerProbes: the router's own per-query work outside the network —
// decoding node responses (captured during the traced pass), merging
// and re-sorting shard results, and ring look-ups.
func (p *prober) routerProbes(nodeBodies [][]byte) {
	if len(nodeBodies) > 0 {
		i := 0
		p.time("router.decode_us_per_op", 1e3, func() {
			var res server.ResultWire
			body := nodeBodies[i%len(nodeBodies)]
			i++
			if err := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxRespBytes)).Decode(&res); err != nil {
				panic(err)
			}
			res.ToResult()
		})
	}
	const shards, perShard = 4, 2048
	r := rand.New(rand.NewSource(1))
	parts := make([]*query.Result, shards)
	for s := range parts {
		parts[s] = &query.Result{Matches: make([]query.Match, perShard)}
		for j := range parts[s].Matches {
			parts[s].Matches[j] = query.Match{Index: int64(j*shards + s), Value: r.Float64()}
		}
	}
	const kmatches = shards * perShard / 1000.0
	ns, calls := p.nsPerCall(func() { query.MergeResults(parts) })
	p.m.set("query.merge_us_per_kmatch", ns/1e3/kmatches, calls)
	interleaved := query.MergeResults(parts)
	shuffled := &query.Result{Matches: make([]query.Match, 0, len(interleaved.Matches))}
	ns, calls = p.nsPerCall(func() {
		shuffled.Matches = shuffled.Matches[:0]
		for s := range parts {
			shuffled.Matches = append(shuffled.Matches, parts[s].Matches...)
		}
		shuffled.Sort()
	})
	p.m.set("query.sort_us_per_kmatch", ns/1e3/kmatches, calls)

	ring, err := shardmap.New(shardmap.Config{Replication: 1}, []string{"127.0.0.1:7001", "127.0.0.1:7002"})
	must(err)
	j := 0
	slabs := make([]string, 8)
	for s := range slabs {
		slabs[s] = fmt.Sprintf("phi_col/slab%d", s)
	}
	p.time("shardmap.owners_ns", 1, func() {
		ring.Owners(slabs[j&7])
		j++
	})
}
