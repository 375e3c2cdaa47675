package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// TestBuildVirtGolden rebuilds every BENCH_build.json row whose pool
// width is fixed (w=1, w=2, w=4) and requires its virtual build seconds
// to equal the committed virt_s_op to the digits the benchmark prints.
// Build CPU is charged from the rate table over the configured pool, so
// these repeat on any host. The w=max rows are GOMAXPROCS workers and
// are left out: their pool is the host's.
func TestBuildVirtGolden(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_build.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Results []struct {
			Mode    string  `json:"mode"`
			Workers string  `json:"workers"`
			VirtSOp float64 `json:"virt_s_op"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	committed := make(map[string]float64, len(doc.Results))
	for _, r := range doc.Results {
		committed[r.Mode+"/"+r.Workers] = r.VirtSOp
	}
	data, shape := benchData(t)
	for _, m := range buildParallelModes() {
		for _, w := range []int{1, 2, 4} {
			key := fmt.Sprintf("%s/w=%d", m.name, w)
			want, ok := committed[key]
			if !ok {
				t.Errorf("BENCH_build.json has no results row %s", key)
				continue
			}
			cfg := m.cfg
			cfg.BuildWorkers = w
			fs := benchStagingFS()
			clk := fs.NewClock()
			if _, err := Build(fs, clk, "b/phi", shape, data, cfg); err != nil {
				t.Fatal(err)
			}
			if got := clk.Now(); math.Abs(got-want) > printedHalfUnit(want) {
				t.Errorf("BENCH_build.json %s: virt_s_op %.7g, committed %g", key, got, want)
			}
		}
	}
}

// printedHalfUnit is half a unit in the last decimal go test prints for
// a custom benchmark metric of about y (testing's prettyPrint): the
// committed figure is that rounding of the measured one.
func printedHalfUnit(y float64) float64 {
	decimals := 0
	for _, step := range []float64{999.95, 99.995, 9.9995, 0.99995, 0.099995, 0.0099995, 0.00099995} {
		if y >= step {
			break
		}
		decimals++
	}
	return 0.5*math.Pow(10, -float64(decimals)) + 1e-12
}
