package core

// Package-level performance benchmarks for the MLOC store: ingest
// throughput, query paths, and the subset-store reader. The paper-level
// experiment benchmarks live in the repository root's bench_test.go.

import (
	"fmt"
	"runtime"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

func benchData(tb testing.TB) ([]float64, grid.Shape) {
	tb.Helper()
	d := datagen.GTSLike(256, 256, 1)
	v, _ := d.Var("phi")
	return v.Data, d.Shape
}

func BenchmarkBuildCOL(b *testing.B) {
	data, shape := benchData(b)
	cfg := DefaultConfig([]int{32, 32})
	cfg.NumBins = 32
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs := pfs.New(pfs.DefaultConfig())
		if _, err := Build(fs, fs.NewClock(), "b/phi", shape, data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildISA(b *testing.B) {
	data, shape := benchData(b)
	cfg := ISAConfig([]int{32, 32})
	cfg.NumBins = 32
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs := pfs.New(pfs.DefaultConfig())
		if _, err := Build(fs, fs.NewClock(), "b/phi", shape, data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStagingFS models the paper's in-situ pipeline target (§V): the
// builder writes to fast staging storage, so encode CPU — not seeks or
// stream bandwidth — dominates the virtual build time the clock
// records. The parallel-build benchmark uses it so the reported
// virtual-clock speedup isolates the compute fan-out.
func benchStagingFS() *pfs.Sim {
	cfg := pfs.DefaultConfig()
	cfg.SeekLatency = 1e-4
	cfg.OpenLatency = 1e-4
	cfg.ReadBW = 2e9
	cfg.WriteBW = 2e9
	return pfs.New(cfg)
}

// buildMode is one storage mode of the parallel-build benchmark.
type buildMode struct {
	name string
	cfg  Config
}

// buildParallelModes are BenchmarkBuildParallel's storage modes, the
// "mode" column of BENCH_build.json.
func buildParallelModes() []buildMode {
	modes := []buildMode{
		{"planes", DefaultConfig([]int{32, 32})},
		{"isobar", ISOConfig([]int{32, 32})},
		{"isabela", ISAConfig([]int{32, 32})},
	}
	for i := range modes {
		modes[i].cfg.NumBins = 32
	}
	return modes
}

// BenchmarkBuildParallel measures the parallel store-build pipeline
// across worker counts and storage modes. Wall ns/op shows the real
// multi-core speedup where the host has cores to offer; the virt-s/op
// metric is the virtual-clock build time (modelled compute divided by
// the pool width, plus write time), which repeats exactly and whose
// speedup reproduces the paper's pipeline shape on any host. scripts/bench_json.sh turns this into
// BENCH_build.json, the recorded bench trajectory.
func BenchmarkBuildParallel(b *testing.B) {
	data, shape := benchData(b)
	workers := []struct {
		name string
		n    int
	}{
		{"w=1", 1},
		{"w=2", 2},
		{"w=4", 4},
		{"w=max", runtime.GOMAXPROCS(0)},
	}
	for _, m := range buildParallelModes() {
		for _, w := range workers {
			b.Run(fmt.Sprintf("%s/%s", m.name, w.name), func(b *testing.B) {
				cfg := m.cfg
				cfg.BuildWorkers = w.n
				b.SetBytes(int64(len(data) * 8))
				b.ReportAllocs()
				var virt float64
				for i := 0; i < b.N; i++ {
					fs := benchStagingFS()
					clk := fs.NewClock()
					if _, err := Build(fs, clk, "b/phi", shape, data, cfg); err != nil {
						b.Fatal(err)
					}
					virt += clk.Now()
				}
				b.ReportMetric(virt/float64(b.N), "virt-s/op")
			})
		}
	}
}

func benchStore(b *testing.B) (*Store, []float64) {
	b.Helper()
	data, shape := benchData(b)
	cfg := DefaultConfig([]int{32, 32})
	cfg.NumBins = 32
	fs := pfs.New(pfs.DefaultConfig())
	st, err := Build(fs, fs.NewClock(), "b/phi", shape, data, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return st, data
}

func BenchmarkRegionQuery(b *testing.B) {
	st, data := benchStore(b)
	lo, hi := datagen.Selectivity(data, 0.05, 7, 4096)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	req := &query.Request{VC: &vc, IndexOnly: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(req, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueQuery(b *testing.B) {
	st, _ := benchStore(b)
	sc, _ := grid.NewRegion([]int{64, 64}, []int{192, 192})
	req := &query.Request{SC: &sc}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(req, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPLoD2Query(b *testing.B) {
	st, _ := benchStore(b)
	sc, _ := grid.NewRegion([]int{64, 64}, []int{192, 192})
	req := &query.Request{SC: &sc, PLoDLevel: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Query(req, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeOffsets(b *testing.B) {
	// A typical unit: 1000 points with small deltas.
	offsets := make([]int32, 1000)
	for i := range offsets {
		offsets[i] = int32(i * 7)
	}
	var raw []byte
	prev := int32(0)
	for _, o := range offsets {
		d := o - prev
		prev = o
		for d >= 0x80 {
			raw = append(raw, byte(d)|0x80)
			d >>= 7
		}
		raw = append(raw, byte(d))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var arena []int32
	for i := 0; i < b.N; i++ {
		var err error
		if arena, err = decodeOffsets(arena[:0], raw, len(offsets)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsetBuild(b *testing.B) {
	data, shape := benchData(b)
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs := pfs.New(pfs.DefaultConfig())
		if _, err := BuildSubset(fs, fs.NewClock(), "b/sub", shape, data, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsetReadCoarse(b *testing.B) {
	data, shape := benchData(b)
	fs := pfs.New(pfs.DefaultConfig())
	st, err := BuildSubset(fs, fs.NewClock(), "b/sub", shape, data, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.ReadLevel(3, 4); err != nil {
			b.Fatal(err)
		}
	}
}
