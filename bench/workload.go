package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mloc/internal/cache"
	"mloc/internal/pfs"
)

// options is the command line of one run.
type options struct {
	size     fieldSize
	setups   int // set-ups per run: setupRepeats, but 1 in the package test
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	traceOut string
}

// result is one workload's outcome.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	ErrorRate float64   `json:"error_rate"`
	FirstErr  string    `json:"first_error,omitempty"`
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
}

// setupRepeats is how often a run performs the whole set-up; setup_s
// and build_mb_per_s are the medians. The driver asks for this: it
// rejects a later change on setup_s, so one reading per run is too few.
const setupRepeats = 3

// verifyRequests is the verify pass's length at -scale 1. The request
// draw moves virt_s_per_op from seed to seed: over ten seeds its
// quartile spread was up to 2.0 % at 300 requests and 1.7 % at 600
// (routed_mix; the others under 1 %), against a bound of 5 %.
const verifyRequests = 600

// tally accumulates attempts and failures across passes.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(p *passResult) {
	t.attempted += p.attempted
	t.failed += p.failed
	if t.firstErr == nil {
		t.firstErr = p.firstErr
	}
}

func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) finish(name string, seed int64, m metricSet, trace bool) (*result, error) {
	if err := m.checkKnown(); err != nil {
		return nil, err
	}
	res := &result{
		Workload:  name,
		Seed:      seed,
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		ErrorRate: float64(t.failed) / float64(t.attempted),
	}
	if t.firstErr != nil {
		res.FirstErr = t.firstErr.Error()
	}
	var err error
	if res.EndToEnd, err = m.fill(endToEndSpecs, true); err != nil {
		return nil, err
	}
	if trace {
		if res.PerLayer, err = m.fill(perLayerSpecs, false); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// nodeCounters sums the PFS and cache counters of every data node.
type nodeCounters struct {
	pfs   pfs.Stats
	cache cache.Stats
}

func (fx *fixture) counters() nodeCounters {
	var c nodeCounters
	for _, n := range fx.nodes {
		ps, cs := n.sim.Stats(), n.cache.Stats()
		c.pfs.BytesRead += ps.BytesRead
		c.pfs.Reads += ps.Reads
		c.pfs.Seeks += ps.Seeks
		c.pfs.Opens += ps.Opens
		c.cache.Hits += cs.Hits
		c.cache.Misses += cs.Misses
		c.cache.Evictions += cs.Evictions
		c.cache.Suppressed += cs.Suppressed
		c.cache.Bytes += cs.Bytes
	}
	return c
}

// serverStats sums the flat /stats counters of every data node, and
// the router's when there is one.
func (fx *fixture) serverStats(ctx context.Context) (nodes, rt map[string]int64, err error) {
	cl := newClient()
	defer cl.close()
	nodes = map[string]int64{}
	for _, n := range fx.nodes {
		s, err := cl.getStats(ctx, n.ln.url)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range s {
			nodes[k] += v
		}
	}
	if fx.router != nil {
		if rt, err = cl.getStats(ctx, fx.router.url); err != nil {
			return nil, nil, err
		}
	}
	return nodes, rt, nil
}

func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

// runQueryWorkload runs one of the four query workloads: set-up,
// verify, measured, and — when tracing — serial, traced, replay and
// the layer probes.
func runQueryWorkload(ctx context.Context, name string, o options) (*result, error) {
	fx, setup, err := setUp(ctx, name, o, o.setups)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	m := metricSet{}
	var t tally

	// Verify: one client, fixed prefix of client 0's list, every answer
	// checked. Counters that must repeat exactly are taken here.
	nVerify := int(verifyRequests * o.scale)
	if nVerify < 2*len(requestKinds) {
		nVerify = 2 * len(requestKinds)
	}
	if nVerify > len(fx.lists[0]) {
		nVerify = len(fx.lists[0])
	}
	before := fx.counters()
	totals, vpass := verifyPass(ctx, fx.target, fx.lists[0][:nVerify])
	after := fx.counters()
	t.add(vpass)

	// Measured: two closed-loop clients, harness tracing off.
	statsBefore, rtBefore, err := fx.serverStats(ctx)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pass := runClients(ctx, fx.target, fx.lists, o.seconds, nil)
	runtime.ReadMemStats(&ms1)
	statsAfter, rtAfter, err := fx.serverStats(ctx)
	if err != nil {
		return nil, err
	}
	t.add(pass)
	ops := len(pass.samples)
	opsPerSec, lat := pass.opsPerSec(), latenciesMS(pass.samples, -1)

	m.set("setup_s", median(setup.setupSecs), len(setup.setupSecs))
	m.set("ops_per_s", opsPerSec, ops)
	m.set("latency_p50_ms", percentile(lat, 0.50), ops)
	m.set("latency_p95_ms", percentile(lat, 0.95), ops)
	m.set("virt_s_per_op", perOp(totals.virtTotal, totals.ops), totals.ops)
	m.set("resp_kb_per_op", perOp(float64(totals.respBytes)/1e3, totals.ops), totals.ops)
	m.set("alloc_mb_per_op", perOp(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, ops), ops)
	m.set("build_mb_per_s", median(setup.buildMBps), len(setup.buildMBps))
	m.set("stored_bytes_per_raw_byte", setup.storedRate, 0)
	if !o.trace {
		return t.finish(name, o.seed, m, false)
	}

	m.set("loadgen.latency_p99_ms", percentile(lat, 0.99), ops)
	for k, kind := range requestKinds {
		if kl := latenciesMS(pass.samples, k); len(kl) > 0 {
			m.set("loadgen.kind."+kind+".p50_ms", percentile(kl, 0.50), len(kl))
		}
	}
	m.set("server.queue_wait_ms_per_op", perOp(float64(statsAfter["queue_wait_us"]-statsBefore["queue_wait_us"])/1e3, ops), ops)
	m.set("server.shed_total", float64(statsAfter["queries_rejected"]-statsBefore["queries_rejected"]), 0)
	if rtAfter != nil {
		m.set("router.hedges_total", float64(rtAfter["hedges_total"]-rtBefore["hedges_total"]), 0)
		m.set("router.degraded_total", float64(rtAfter["queries_degraded"]-rtBefore["queries_degraded"]), 0)
		m.set("router.shards_per_op", perOp(float64(totals.shards), totals.routedCount), totals.routedCount)
		m.set("router.fanout_skew_ms", perOp(totals.skewMS, totals.routedCount), totals.routedCount)
	}
	m.set("runtime.gc_pause_ms_total", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, 0)
	m.set("runtime.num_gc", float64(ms1.NumGC-ms0.NumGC), 0)
	m.set("runtime.heap_sys_mb", float64(ms1.HeapSys)/1e6, 0)
	m.set("runtime.mallocs_per_op", perOp(float64(ms1.Mallocs-ms0.Mallocs), ops), ops)

	// Counters over the verify pass, where one client makes them exact.
	vo := totals.ops
	m.set("core.virt_io_s_per_op", perOp(totals.virtIO, vo), vo)
	m.set("core.virt_decompress_s_per_op", perOp(totals.virtDecomp, vo), vo)
	m.set("core.virt_reconstruct_s_per_op", perOp(totals.virtRecon, vo), vo)
	m.set("core.matches_per_op", perOp(float64(totals.matches), vo), vo)
	m.set("core.bins_accessed_per_op", perOp(float64(totals.bins), vo), vo)
	m.set("core.bins_pruned_per_op", perOp(float64(totals.pruned), vo), vo)
	m.set("core.bins_covered_per_op", perOp(float64(totals.covered), vo), vo)
	m.set("core.index_nodes_per_op", perOp(float64(totals.nodes), vo), vo)
	m.set("core.blocks_read_per_op", perOp(float64(totals.blocks), vo), vo)
	if totals.matches > 0 {
		m.set("core.bytes_read_per_match", float64(totals.bytesRead)/float64(totals.matches), vo)
	}
	for kind, secs := range setup.buildSecs {
		m.set("core.build_s."+kind, median(secs), len(secs))
	}
	lookups := (after.cache.Hits - before.cache.Hits) + (after.cache.Misses - before.cache.Misses)
	if lookups > 0 {
		m.set("cache.hit_ratio", float64(after.cache.Hits-before.cache.Hits)/float64(lookups), int(lookups))
	}
	m.set("cache.evictions_per_op", perOp(float64(after.cache.Evictions-before.cache.Evictions), vo), vo)
	m.set("cache.suppressed_per_op", perOp(float64(after.cache.Suppressed-before.cache.Suppressed), vo), vo)
	m.set("cache.resident_mb", float64(after.cache.Bytes)/1e6, 0)
	m.set("pfs.bytes_read_per_op", perOp(float64(after.pfs.BytesRead-before.pfs.BytesRead), vo), vo)
	m.set("pfs.reads_per_op", perOp(float64(after.pfs.Reads-before.pfs.Reads), vo), vo)
	m.set("pfs.seeks_per_op", perOp(float64(after.pfs.Seeks-before.pfs.Seeks), vo), vo)
	m.set("pfs.opens_per_op", perOp(float64(after.pfs.Opens-before.pfs.Opens), vo), vo)
	m.set("pfs.bytes_written_per_build", float64(fx.bytesWritten)/float64(len(fx.specs)), len(fx.specs))

	if err := tracedPasses(ctx, fx, name, opsPerSec, o, m, &t); err != nil {
		return nil, err
	}
	pr := newProber(o.scale, m)
	phi := fx.byName["phi_col"]
	switch name {
	case "region_index":
		pr.indexProbes(phi)
	case "value_subvol":
		pr.decodeProbes(phi)
	case "hot_repeat":
		pr.fixedCostProbes(phi)
	case "routed_mix":
		pr.routerProbes(fx.rec.bodies)
	}
	return t.finish(name, o.seed, m, true)
}

// tracedPasses runs the serial pass, then the same requests again with
// the harness's spans on, then replays each of them stage by stage. It
// fills the loadgen, server, core.query/explain/open, http and router
// span metrics and writes the span file.
func tracedPasses(ctx context.Context, fx *fixture, name string, opsPerSec float64, o options, m metricSet, t *tally) error {
	reqs := fx.lists[0]
	n := len(reqs) / 10
	if n < 2*len(requestKinds) {
		n = 2 * len(requestKinds)
	}
	if n > len(reqs) {
		n = len(reqs)
	}
	reqs = reqs[:n]

	serial := runClients(ctx, fx.target, [][]*request{reqs}, 0, nil)
	t.add(serial)
	fx.rec.start()
	traced := runClients(ctx, fx.target, [][]*request{reqs}, 0, fx.rec)
	t.add(traced)

	// The replay handle: the same store bytes opened on their own
	// simulator, behind a cache of the node's size.
	n0 := fx.nodes[0]
	_, stores, openSecs, err := cloneStores(ctx, n0.sim, n0.stores)
	if err != nil {
		return err
	}
	rcache, err := cache.New(cacheBytesFor(name))
	if err != nil {
		return err
	}
	for _, st := range stores {
		st.SetDecodeCache(rcache)
	}
	var rp replayTotals
	for _, totals := range []*replayTotals{nil, &rp} {
		for i, req := range reqs {
			if err := fx.rec.replay(ctx, stores, i+1, req, totals); err != nil {
				t.fail(fmt.Errorf("replay of %s request %d: %w", requestKinds[req.kind], i, err))
			}
		}
	}
	fx.rec.stop()

	m.set("loadgen.serial_ops_per_s", serial.opsPerSec(), len(serial.samples))
	if s := serial.opsPerSec(); s > 0 {
		m.set("loadgen.concurrency_gain", opsPerSec/s, 0)
	}
	if serial.wall > 0 {
		m.set("loadgen.trace_overhead_ratio", traced.wall.Seconds()/serial.wall.Seconds(), len(traced.samples))
	}
	m.set("core.open_ms", openSecs*1e3, len(stores))

	byReq := fx.rec.resolveParents()
	var nodeMS, routerMS []float64
	var clientOverhead, routerSelf float64
	var roundtrips, routed int
	for _, group := range byReq {
		for _, s := range group {
			switch s.Name {
			case "node.handler":
				nodeMS = append(nodeMS, s.ms())
			case "router.handler":
				routerMS = append(routerMS, s.ms())
				routerSelf += selfMS(s, group)
				routed++
			case "client.roundtrip":
				// What the client waits beyond the outermost handler:
				// loopback, net/http on both ends, response copy.
				clientOverhead += selfMS(s, group)
				roundtrips++
			}
		}
	}
	sort.Float64s(nodeMS)
	sort.Float64s(routerMS)
	m.set("server.handler_ms_p50", percentile(nodeMS, 0.50), len(nodeMS))
	m.set("http.client_overhead_ms_per_op", perOp(clientOverhead, roundtrips), roundtrips)
	if routed > 0 {
		m.set("router.handler_ms_p50", percentile(routerMS, 0.50), routed)
		m.set("router.self_ms_per_op", perOp(routerSelf, routed), routed)
		var traceBytes int
		for _, body := range fx.rec.bodies {
			traceBytes += traceFieldBytes(body)
		}
		m.set("router.trace_bytes_per_op", perOp(float64(traceBytes), routed), routed)
	}
	if rp.ops > 0 {
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(rp.ops) }
		m.set("server.parse_us_per_op", us(rp.parse), rp.ops)
		m.set("server.build_result_us_per_op", us(rp.build), rp.ops)
		m.set("server.encode_us_per_op", us(rp.encode), rp.ops)
		if rp.matches > 0 {
			m.set("server.encode_ns_per_match", float64(rp.encode.Nanoseconds())/float64(rp.matches), rp.ops)
		}
		m.set("core.query_ms_per_op", us(rp.engine)/1e3, rp.ops)
		m.set("core.explain_us_per_op", us(rp.explain), rp.ops)
		// The handler's time no replayed stage accounts for: admission,
		// trace start, query log, SLO, histograms, net/http's handler
		// frame. Means over the same requests, so the difference is
		// meaningful per op even though the two were timed apart.
		if len(nodeMS) > 0 && fx.router == nil {
			var handlerMean float64
			for _, v := range nodeMS {
				handlerMean += v
			}
			handlerMean /= float64(len(nodeMS))
			m.set("server.other_ms_per_op", handlerMean-us(rp.parse+rp.engine+rp.build+rp.encode)/1e3, rp.ops)
		}
	}
	m.set("runtime.goroutines_end", float64(runtime.NumGoroutine()), 0)
	if o.traceOut != "" {
		return fx.rec.writeJSONL(o.traceOut)
	}
	return nil
}
