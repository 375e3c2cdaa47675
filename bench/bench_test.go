package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"mloc/internal/server"
)

// testSize keeps a full set-up well under a second.
var testSize = fieldSize{gts: 64, s3d: 16}

// benchmarkDecl is BENCHMARK.json as the driver reads it.
type benchmarkDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkDecl {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkDecl
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return decl
}

// TestCatalogueMatchesBenchmarkJSON keeps the names, units and limits
// declared to the driver equal to what the program emits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if len(decl.Workloads) > 8 || len(decl.EndToEnd) > 16 || len(decl.PerLayer) > 128 {
		t.Errorf("too many entries: %d workloads, %d end-to-end, %d per-layer (limits 8/16/128)",
			len(decl.Workloads), len(decl.EndToEnd), len(decl.PerLayer))
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, decls []metricDecl, specs []metricSpec, bounded bool) {
		if len(decls) != len(specs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program emits %d", kind, len(decls), len(specs))
		}
		for i, d := range decls {
			if d.Name != specs[i].name || d.Unit != specs[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, d.Name, d.Unit, specs[i].name, specs[i].unit)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s metric %q [%q] breaks the naming rules", kind, d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("metric name %q is used twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better is %q", d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", d.Name, d.Bound != nil, bounded)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, *d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndSpecs, true)
	check("per_layer", decl.PerLayer, perLayerSpecs, false)
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}
}

func runSmoke(t *testing.T, workload string, seed int64, traceOut string) *result {
	t.Helper()
	o := options{size: testSize, setups: 1, seed: seed, seconds: 0, scale: 0.01, trace: true, traceOut: traceOut}
	var res *result
	var err error
	if workload == "ingest_build" {
		res, err = runIngestWorkload(context.Background(), o)
	} else {
		res, err = runQueryWorkload(context.Background(), workload, o)
	}
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.Correct {
		t.Fatalf("%s seed %d: %d of %d operations failed: %s", workload, seed, res.Failed, res.Attempted, res.FirstErr)
	}
	return res
}

// exactMetrics are counts the requests and the stores fix: one seed
// must reproduce them bit for bit.
var exactMetrics = []string{
	"core.matches_per_op",
	"core.bins_accessed_per_op",
	"core.bins_pruned_per_op",
	"core.bins_covered_per_op",
	"core.index_nodes_per_op",
	"pfs.bytes_written_per_build",
}

// nearMetrics repeat to within a percent: the eviction order four
// concurrent ranks leave in the cache moves a little with scheduling.
var nearMetrics = []string{
	"core.blocks_read_per_op",
	"pfs.bytes_read_per_op",
}

// TestWorkloadsSmoke runs every workload at -scale 0.01 on a small
// field, twice on one seed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloadNames {
		w := w
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			a := runSmoke(t, w, 1, spans)
			b := runSmoke(t, w, 1, "")

			if len(a.EndToEnd) != len(endToEndSpecs) || len(a.PerLayer) != len(perLayerSpecs) {
				t.Fatalf("emitted %d end-to-end and %d per-layer metrics, want %d and %d",
					len(a.EndToEnd), len(a.PerLayer), len(endToEndSpecs), len(perLayerSpecs))
			}
			for _, s := range endToEndSpecs {
				if v, ok := a.EndToEnd[s.name]; !ok || !(v.Value > 0) || v.Unit != s.unit {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", s.name, v, s.unit)
				}
			}
			for _, s := range perLayerSpecs {
				if v, ok := a.PerLayer[s.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != s.unit {
					t.Errorf("per-layer %s = %+v, want a finite value in %s", s.name, v, s.unit)
				}
			}

			if a.EndToEnd["stored_bytes_per_raw_byte"] != b.EndToEnd["stored_bytes_per_raw_byte"] {
				t.Errorf("stored_bytes_per_raw_byte differs between two runs of one seed")
			}
			for _, name := range exactMetrics {
				if a.PerLayer[name].Value != b.PerLayer[name].Value {
					t.Errorf("%s: %v then %v on the same seed", name, a.PerLayer[name].Value, b.PerLayer[name].Value)
				}
			}
			near := func(name string, x, y, tol float64) {
				if math.Abs(x-y) > tol*math.Abs(x) {
					t.Errorf("%s: %v then %v on the same seed", name, x, y)
				}
			}
			for _, name := range nearMetrics {
				near(name, a.PerLayer[name].Value, b.PerLayer[name].Value, 0.01)
			}
			// Responses print measured CPU seconds and queue waits, so
			// their length moves in the fourth digit.
			// virt_s_per_op is not held to anything: it includes CPU seconds
			// measured while the other packages' tests load the machine.
			near("resp_kb_per_op", a.EndToEnd["resp_kb_per_op"].Value, b.EndToEnd["resp_kb_per_op"].Value, 0.01)

			if w == "ingest_build" {
				return // no traced pass: nothing serves requests
			}
			if info, err := os.Stat(spans); err != nil {
				t.Errorf("span file: %v", err)
			} else if info.Size() == 0 {
				t.Errorf("span file is empty")
			}
		})
	}
}

// TestSeedReachesRequests: one seed gives one request list, another
// seed another.
func TestSeedReachesRequests(t *testing.T) {
	stores := map[string]*storeSpec{}
	for _, s := range genSpecs(testSize) {
		stores[s.name] = s
	}
	bodies := func(workload string, seed int64) string {
		lists, err := genRequests(workload, stores, seed, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, l := range lists {
			for _, r := range l {
				all = append(all, r.body...)
			}
		}
		return string(all)
	}
	for w := range listLen {
		if bodies(w, 1) != bodies(w, 1) {
			t.Errorf("%s: seed 1 gave two different request lists", w)
		}
		if bodies(w, 1) == bodies(w, 2) {
			t.Errorf("%s: seeds 1 and 2 gave the same request lists", w)
		}
	}
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	spec := genSpecs(testSize)[0]
	stores := map[string]*storeSpec{spec.name: spec}
	g := &reqGen{stores: stores}
	lo, hi := 10.0, 10.5
	req, err := g.finish("col_full", spec, server.QueryWire{
		SC: &server.SCWire{Lo: []int{3, 5}, Hi: []int{9, 40}},
		VC: &server.VCWire{Min: &lo, Max: &hi},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := answer{}
	good.Var = spec.name
	forEachInBox(spec.shape, req.wire.SC.Lo, req.wire.SC.Hi, func(lin int64) {
		if v := spec.data[lin]; v >= lo && v <= hi {
			good.Matches = append(good.Matches, server.MatchWire{Index: lin, Value: v})
		}
	})
	good.MatchesTotal = len(good.Matches)
	if len(good.Matches) < 3 {
		t.Fatalf("test box holds only %d qualifying points", len(good.Matches))
	}
	if err := checkAnswer(req, &good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	mutate := func(name string, f func(a *answer)) {
		bad := good
		bad.Matches = append(bad.Matches[:0:0], good.Matches...)
		f(&bad)
		if err := checkAnswer(req, &bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	mutate("missing match", func(a *answer) { a.Matches = a.Matches[1:]; a.MatchesTotal-- })
	mutate("wrong value", func(a *answer) { a.Matches[1].Value = math.Nextafter(a.Matches[1].Value, 11) })
	mutate("extra match outside the box", func(a *answer) {
		a.Matches = append(a.Matches, server.MatchWire{Index: int64(len(spec.data) - 1), Value: 10.2})
		a.MatchesTotal++
	})
	mutate("truncated", func(a *answer) { a.Truncated = true })
	mutate("degraded", func(a *answer) { a.Degraded = true })

	// Tolerance mode: values may move by relTol·|v|, no further.
	req.relTol = 0.01
	mutate("value off by 2 %", func(a *answer) { a.Matches[1].Value *= 1.02 })
	near := good
	near.Matches = append(near.Matches[:0:0], good.Matches...)
	near.Matches[1].Value *= 1.005
	if err := checkAnswer(req, &near); err != nil {
		t.Errorf("value within tolerance rejected: %v", err)
	}
}

// TestCompareVerdicts: -compare's three verdicts, and that a single
// stopwatch reading per side is never enough for "ok".
func TestCompareVerdicts(t *testing.T) {
	var bench benchmarkFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "ops_per_s", "better": "higher", "bound": 0.25},
		{"name": "virt_s_per_op", "better": "lower", "bound": 0.02}]}`), &bench); err != nil {
		t.Fatal(err)
	}
	runs := func(ops, virt []float64) []*result {
		var out []*result
		for i := range ops {
			out = append(out, &result{Workload: "hot_repeat", Correct: true, EndToEnd: metricSet{
				"ops_per_s":     {Value: ops[i]},
				"virt_s_per_op": {Value: virt[i]},
			}})
		}
		return out
	}
	cases := []struct {
		name      string
		a, b      []*result
		ops, virt string
	}{
		{"one run a side", runs([]float64{100}, []float64{1}), runs([]float64{100}, []float64{1}), "unresolved", "ok"},
		{"one run a side, modelled time 5 % worse", runs([]float64{100}, []float64{1}), runs([]float64{100}, []float64{1.05}), "unresolved", "regressed"},
		{"steady and equal", runs([]float64{100, 101, 102, 103}, []float64{1, 1, 1, 1}), runs([]float64{99, 101, 102, 104}, []float64{1, 1, 1, 1}), "ok", "ok"},
		{"steady and slower", runs([]float64{100, 101, 102, 103}, []float64{1, 1, 1, 1}), runs([]float64{60, 61, 62, 63}, []float64{1, 1, 1, 1}), "regressed", "ok"},
		{"too noisy to tell", runs([]float64{100, 101, 102, 103}, []float64{1, 1, 1, 1}), runs([]float64{40, 80, 120, 160}, []float64{1, 1, 1, 1}), "unresolved", "ok"},
	}
	for _, c := range cases {
		rows := compareResults(bench, c.a, c.b)
		if len(rows) != 2 {
			t.Fatalf("%s: %d rows, want 2", c.name, len(rows))
		}
		if rows[0].verdict != c.ops || rows[1].verdict != c.virt {
			t.Errorf("%s: ops_per_s %s, virt_s_per_op %s; want %s, %s", c.name, rows[0].verdict, rows[1].verdict, c.ops, c.virt)
		}
	}
}
