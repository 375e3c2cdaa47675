package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"mloc/internal/core"
	"mloc/internal/pfs"
	"mloc/internal/server"
)

// ingestRounds is the number of build rounds at -scale 1 when the run
// is not time-bounded.
const ingestRounds = 6

// probesPerStore is how many checked queries each rebuilt store answers
// per round. virt_s_per_op is their mean; at 16 its quartile spread
// over ten seeds is 1.4-2.2 %, against a bound of 5 %.
const probesPerStore = 16

// runIngestWorkload builds the four stores round after round on fresh
// simulators. One op is one store build. After each round the stores
// must hash to the first round's digests, reopen, and answer a few
// oracle-checked queries each through the server handler.
func runIngestWorkload(ctx context.Context, o options) (*result, error) {
	// Set-up is the input: generating the two datasets.
	var setupSecs []float64
	var specs []*storeSpec
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		specs = genSpecs(o.size)
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}
	byName := map[string]*storeSpec{}
	var rawBytes int64
	for _, s := range specs {
		byName[s.name] = s
		rawBytes += s.rawBytes()
	}
	// A few value queries per store, the same every round.
	g := &reqGen{r: rand.New(rand.NewSource(o.seed)), stores: byName}
	var probes []*request
	for n := 0; n < probesPerStore; n++ {
		for _, i := range []int{0, 1, 2, 4} { // col_full, iso_full, isa_full, s3d_full
			req, err := g.valueSubvol(i)
			if err != nil {
				return nil, err
			}
			probes = append(probes, req)
		}
	}

	m := metricSet{}
	var t tally
	rounds := int(ingestRounds * o.scale)
	if rounds < 1 {
		rounds = 1
	}
	var samples []opSample
	buildSecs := map[string][]float64{}
	var buildWall time.Duration
	var allocBytes, mallocs, storedBytes, bytesWritten uint64
	var gcPauseNS uint64
	var numGC uint32
	var heapSys uint64
	var openSecs float64
	var opens int
	var totals respTotals
	var firstDigests map[string]string
	start := time.Now()
	for round := 0; ; round++ {
		if o.seconds > 0 {
			if round > 0 && time.Since(start).Seconds() >= o.seconds {
				break
			}
		} else if round == rounds {
			break
		}
		sim := pfs.New(pfs.DefaultConfig())
		stores := map[string]*core.Store{}
		for _, s := range specs {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			st, err := core.BuildContext(ctx, sim, sim.NewClock(), storePrefix+s.name, s.shape, s.data, s.cfg)
			d := time.Since(t0)
			runtime.ReadMemStats(&ms1)
			if err != nil {
				t.fail(fmt.Errorf("round %d: building %s: %w", round, s.name, err))
				continue
			}
			t.attempted++
			stores[s.name] = st
			samples = append(samples, opSample{dur: d})
			buildSecs[s.kind] = append(buildSecs[s.kind], d.Seconds())
			buildWall += d
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
			mallocs += ms1.Mallocs - ms0.Mallocs
			gcPauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
			numGC += ms1.NumGC - ms0.NumGC
			heapSys = ms1.HeapSys
		}
		if round == 0 {
			bytesWritten = uint64(sim.Stats().BytesWritten)
			for _, st := range stores {
				storedBytes += uint64(st.TotalBytes())
			}
		}
		digests := map[string]string{}
		for name, st := range stores {
			d, err := storeDigest(sim, st.Prefix())
			if err != nil {
				return nil, err
			}
			digests[name] = d
		}
		if firstDigests == nil {
			firstDigests = digests
		}
		for name, d := range digests {
			if d != firstDigests[name] {
				t.fail(fmt.Errorf("round %d: store %s hashes to %s, round 0 to %s", round, name, d[:12], firstDigests[name][:12]))
			}
		}
		secs, n, err := reopenAndQuery(sim, stores, probes, &totals, &t)
		if err != nil {
			return nil, err
		}
		openSecs += secs
		opens += n
	}
	builds := len(samples)
	if builds == 0 || totals.ops == 0 {
		return nil, fmt.Errorf("ingest_build: no build succeeded: %v", t.firstErr)
	}
	lat := latenciesMS(samples, -1)
	m.set("setup_s", median(setupSecs), len(setupSecs))
	m.set("ops_per_s", float64(builds)/buildWall.Seconds(), builds)
	// The true median: with equally many builds of each of four kinds,
	// the nearest rank would flip between two kinds from run to run.
	m.set("latency_p50_ms", median(lat), builds)
	m.set("latency_p95_ms", percentile(lat, 0.95), builds)
	m.set("virt_s_per_op", perOp(totals.virtTotal, totals.ops), totals.ops)
	m.set("resp_kb_per_op", perOp(float64(totals.respBytes)/1e3, totals.ops), totals.ops)
	m.set("alloc_mb_per_op", perOp(float64(allocBytes)/1e6, builds), builds)
	m.set("build_mb_per_s", float64(rawBytes)/1e6*float64(builds)/float64(len(specs))/buildWall.Seconds(), builds)
	m.set("stored_bytes_per_raw_byte", float64(storedBytes)/float64(rawBytes), 0)
	if !o.trace {
		return t.finish("ingest_build", o.seed, m, false)
	}

	for kind, secs := range buildSecs {
		m.set("core.build_s."+kind, median(secs), len(secs))
	}
	m.set("core.open_ms", perOp(openSecs*1e3, opens), opens)
	m.set("core.virt_io_s_per_op", perOp(totals.virtIO, totals.ops), totals.ops)
	m.set("core.virt_decompress_s_per_op", perOp(totals.virtDecomp, totals.ops), totals.ops)
	m.set("core.virt_reconstruct_s_per_op", perOp(totals.virtRecon, totals.ops), totals.ops)
	m.set("core.matches_per_op", perOp(float64(totals.matches), totals.ops), totals.ops)
	m.set("pfs.bytes_written_per_build", float64(bytesWritten)/float64(len(specs)), len(specs))
	m.set("runtime.gc_pause_ms_total", float64(gcPauseNS)/1e6, 0)
	m.set("runtime.num_gc", float64(numGC), 0)
	m.set("runtime.heap_sys_mb", float64(heapSys)/1e6, 0)
	m.set("runtime.mallocs_per_op", perOp(float64(mallocs), builds), builds)
	m.set("runtime.goroutines_end", float64(runtime.NumGoroutine()), 0)
	newProber(o.scale, m).encodeProbes(byName["phi_col"])
	return t.finish("ingest_build", o.seed, m, true)
}

// reopenAndQuery opens every store of a finished round from the PFS
// and serves the checked probe queries through a server handler,
// in-process. It returns the summed core.Open wall seconds and count.
func reopenAndQuery(sim *pfs.Sim, built map[string]*core.Store, probes []*request, totals *respTotals, t *tally) (float64, int, error) {
	opened := map[string]*core.Store{}
	var openSecs float64
	for name, st := range built {
		t0 := time.Now()
		o, err := core.Open(sim, sim.NewClock(), st.Prefix())
		if err != nil {
			t.fail(fmt.Errorf("reopening %s: %w", name, err))
			continue
		}
		openSecs += time.Since(t0).Seconds()
		opened[name] = o
	}
	if len(opened) == 0 {
		return 0, 0, nil
	}
	svc, err := server.New(server.Config{Stores: opened, DefaultRanks: defaultRanks, MaxMatches: maxMatches, Logf: func(string, ...any) {}})
	if err != nil {
		return 0, 0, err
	}
	h := svc.Handler()
	for _, req := range probes {
		if opened[req.spec.name] == nil {
			continue
		}
		t.attempted++
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(req.body)))
		var ans answer
		err := fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		if rec.Code == http.StatusOK {
			if err = json.Unmarshal(rec.Body.Bytes(), &ans); err == nil {
				err = checkAnswer(req, &ans)
			}
		}
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("verify after build: %s: %w", req.spec.name, err)
			}
			continue
		}
		totals.add(&ans, rec.Body.Len())
	}
	return openSecs, len(opened), nil
}
