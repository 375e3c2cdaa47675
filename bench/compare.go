package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readResults(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return results, nil
}

// wallClock names the end-to-end metrics that are stopwatch readings.
// They move from run to run on one commit, so -compare needs at least
// two runs a side to know their spread; the others (modelled seconds,
// bytes, allocations, stored size) repeat to well within their bounds.
var wallClock = map[string]bool{
	"setup_s":        true,
	"ops_per_s":      true,
	"latency_p50_ms": true,
	"latency_p95_ms": true,
	"build_mb_per_s": true,
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them. Fewer than two
// values have no spread.
func quartileSpread(values []float64) float64 {
	n := len(values)
	med := median(values)
	if n < 2 || med == 0 { //mlocvet:ignore floatcmp -- guards the division below against a literal zero median
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return math.Abs((q(3) - q(1)) / med)
}

// verdictRow is one line of -compare: a workload × end-to-end metric.
type verdictRow struct {
	workload, metric string
	medianA, medianB float64
	worse, bound     float64 // shares of median a
	verdict          string  // ok | regressed | unresolved
	runsA, runsB     int
}

// compareResults judges b against a, one row per workload × end-to-end
// metric both sides measured. A metric whose own run-to-run spread
// exceeds its bound — or a wall-clock metric with a single run on
// either side — reads "unresolved", not "ok".
func compareResults(bench benchmarkFile, a, b []*result) []verdictRow {
	values := func(results []*result, workload, name string) []float64 {
		var out []float64
		for _, r := range results {
			if v, ok := r.EndToEnd[name]; ok && r.Workload == workload {
				out = append(out, v.Value)
			}
		}
		return out
	}
	var rows []verdictRow
	for _, w := range workloadNames {
		for _, spec := range bench.EndToEnd {
			va, vb := values(a, w, spec.Name), values(b, w, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if spec.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			case wallClock[spec.Name] && (len(va) < 2 || len(vb) < 2):
				verdict = "unresolved" // one stopwatch reading has no known spread
			case quartileSpread(va) > spec.Bound || quartileSpread(vb) > spec.Bound:
				verdict = "unresolved"
			case worse > spec.Bound:
				verdict = "regressed"
			}
			rows = append(rows, verdictRow{w, spec.Name, ma, mb, worse, spec.Bound, verdict, len(va), len(vb)})
		}
	}
	return rows
}

// compareFiles prints compareResults for two -out files (each holds
// every run made with it) against the bounds of BENCHMARK.json in the
// working directory, and fails when a metric regressed or a run was
// incorrect.
func compareFiles(pathA, pathB string) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-compare reads bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Printf("%-14s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "verdict")
	for _, r := range compareResults(bench, a, b) {
		if r.verdict == "regressed" {
			regressed++
		}
		fmt.Printf("%-14s %-26s %14.6g %14.6g %8.2f%% %6.1f%%  %s (n=%d,%d)\n",
			r.workload, r.metric, r.medianA, r.medianB, 100*r.worse, 100*r.bound, r.verdict, r.runsA, r.runsB)
	}
	for _, r := range append(a, b...) {
		if !r.Correct {
			return fmt.Errorf("%s seed %d had %d failed operations", r.Workload, r.Seed, r.Failed)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}
