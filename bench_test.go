package mloc

// Query-path benchmarks behind BENCH_query.json: scripts/bench_json.sh
// runs BenchmarkQueryLatency, BenchmarkResultPath and BenchmarkValuePath
// and distills them into the committed checkpoint, which each one also
// gates itself against. The paper's tables and figures are regenerated
// by cmd/benchtables and gated by internal/experiments' claim tests.

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/cache"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
	"mloc/internal/server"
)

// benchQueryDoc is the part of the committed BENCH_query.json
// checkpoint the benchmarks gate themselves on. Empty when the file is
// absent (first recording run).
type benchQueryDoc struct {
	QueryLatency []struct {
		Index   string  `json:"index"`
		Codec   string  `json:"codec"`
		Sel     string  `json:"sel"`
		VirtSOp float64 `json:"virt_s_op"`
	} `json:"query_latency"`
	ResultPath []struct {
		Case    string  `json:"case"`
		NsMatch float64 `json:"ns_match"`
		BytesOp float64 `json:"bytes_op"`
	} `json:"result_path"`
	ValuePath []struct {
		Case    string  `json:"case"`
		NsOp    float64 `json:"ns_op"`
		BytesOp float64 `json:"bytes_op"`
	} `json:"value_path"`
}

func loadBenchQueryDoc() benchQueryDoc {
	var doc benchQueryDoc
	data, err := os.ReadFile("BENCH_query.json")
	if err != nil || json.Unmarshal(data, &doc) != nil {
		return benchQueryDoc{}
	}
	return doc
}

// queryLatencyBaseline maps "index/codec/sel" to the recorded
// virtual-clock latency.
func queryLatencyBaseline() map[string]float64 {
	doc := loadBenchQueryDoc()
	out := make(map[string]float64, len(doc.QueryLatency))
	for _, r := range doc.QueryLatency {
		out[r.Index+"/"+r.Codec+"/"+r.Sel] = r.VirtSOp
	}
	return out
}

// BenchmarkQueryLatency is the committed query-latency trajectory:
// flat vs hierarchical index across VC selectivities and codecs, on
// index-only range queries over a 256x256 GTS field with 256 bins.
// The headline metric is virt-s/op — the virtual-clock latency of the
// slowest rank, deterministic across hosts — which
// scripts/bench_json.sh distills into BENCH_query.json. The committed
// checkpoint doubles as a regression gate: a run whose virtual latency
// exceeds 2x the recorded value fails, mirroring the vet_repo budget
// in BENCH_build.json.
func BenchmarkQueryLatency(b *testing.B) {
	const side, bins, ranks = 256, 1024, 4
	d := datagen.GTSLike(side, side, 11)
	v, _ := d.Var("phi")
	data, shape := v.Data, d.Shape

	codecs := []struct {
		name string
		cfg  core.Config
	}{
		{"planes", core.DefaultConfig([]int{16, 16})},
		{"isobar", core.ISOConfig([]int{16, 16})},
	}
	sels := []struct {
		name string
		frac float64
	}{
		{"sel=1%", 0.01},
		{"sel=10%", 0.10},
		{"sel=50%", 0.50},
	}
	baseline := queryLatencyBaseline()

	for _, c := range codecs {
		cfg := c.cfg
		cfg.NumBins = bins
		cfg.SampleSize = 1 << 16
		fs := pfs.New(pfs.DefaultConfig())
		flat, err := core.Build(fs, pfs.NewClock(), "bq/"+c.name+"/flat", shape, data, cfg)
		if err != nil {
			b.Fatal(err)
		}
		hcfg := cfg
		hcfg.HierarchicalIndex = true
		hier, err := core.Build(fs, pfs.NewClock(), "bq/"+c.name+"/hier", shape, data, hcfg)
		if err != nil {
			b.Fatal(err)
		}
		stores := []struct {
			name string
			st   *core.Store
		}{{"flat", flat}, {"hier", hier}}
		for _, s := range stores {
			for _, sel := range sels {
				lo, hi := datagen.Selectivity(data, sel.frac, 17, 4096)
				req := &query.Request{
					VC:        &binning.ValueConstraint{Min: lo, Max: hi},
					IndexOnly: true,
				}
				b.Run(s.name+"/"+c.name+"/"+sel.name, func(b *testing.B) {
					b.ReportAllocs()
					var virt float64
					var pruned, covered int
					for i := 0; i < b.N; i++ {
						res, err := s.st.Query(req, ranks)
						if err != nil {
							b.Fatal(err)
						}
						virt += res.Time.Total()
						pruned, covered = res.BinsPruned, res.BinsCovered
					}
					virtOp := virt / float64(b.N)
					b.ReportMetric(virtOp, "virt-s/op")
					b.ReportMetric(float64(pruned), "bins-pruned/op")
					b.ReportMetric(float64(covered), "bins-covered/op")
					key := s.name + "/" + c.name + "/" + sel.name
					if base, ok := baseline[key]; ok && base > 0 && virtOp > 2*base {
						b.Fatalf("virtual latency %.6fs exceeds 2x the committed %.6fs (BENCH_query.json %s)",
							virtOp, base, key)
					}
				})
			}
		}
	}
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct{ header http.Header }

func (d discardResponse) Header() http.Header         { return d.header }
func (d discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d discardResponse) WriteHeader(int)             {}

// BenchmarkResultPath times what a request pays after the engine's
// ranks (or a router's shards) hold their matches: the gather into one
// slice, the sort by linear index, and the JSON encoding of the
// response — query.MergeResults, server.BuildResult and
// server.WriteResult, the calls the router makes and the same
// copy-once/SortMatches/encoder path a data node runs. Four ascending
// parts interleave, as the bins of four ranks do, so the sort does
// work. The headline metric is ns/match; scripts/bench_json.sh distills
// it with allocs/op and B/op into the result_path section of
// BENCH_query.json, and a run past 2x the committed ns/match or B/op
// fails, as BenchmarkQueryLatency does on virtual latency.
func BenchmarkResultPath(b *testing.B) {
	const parts = 4
	doc := loadBenchQueryDoc()
	for _, mode := range []string{"index", "value"} {
		for _, n := range []int{4 << 10, 64 << 10} {
			r := rand.New(rand.NewSource(int64(n)))
			ranks := make([]*query.Result, parts)
			for p := range ranks {
				ranks[p] = &query.Result{Matches: make([]query.Match, n/parts)}
				for i := range ranks[p].Matches {
					m := query.Match{Index: int64(i*parts*8 + p*8 + r.Intn(8))}
					if mode == "value" {
						m.Value = 10 + r.Float64()
					}
					ranks[p].Matches[i] = m
				}
			}
			name := mode + "/n=" + strconv.Itoa(n)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				w := discardResponse{header: http.Header{}}
				op := func() {
					res := query.MergeResults(ranks)
					out := server.BuildResult("phi", res, n, 0)
					if err := server.WriteResult(w, &out, mode == "index", nil); err != nil {
						b.Fatal(err)
					}
				}
				op() // fills the sort-scratch and encode-buffer pools, as a serving process has
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				nsMatch := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
				bytesOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
				b.ReportMetric(nsMatch, "ns/match")
				if b.N == 1 {
					return // go test's probe run: one iteration is no measurement to gate on
				}
				for _, base := range doc.ResultPath {
					if base.Case != name {
						continue
					}
					if base.NsMatch > 0 && nsMatch > 2*base.NsMatch {
						b.Fatalf("%.1f ns/match exceeds 2x the committed %.1f (BENCH_query.json result_path %s)",
							nsMatch, base.NsMatch, name)
					}
					if base.BytesOp > 0 && bytesOp > 2*base.BytesOp {
						b.Fatalf("%.0f B/op exceeds 2x the committed %.0f (BENCH_query.json result_path %s)",
							bytesOp, base.BytesOp, name)
					}
				}
			})
		}
	}
}

// BenchmarkValuePath times the paper's value query (§III-D: chunks
// selected by SC, fetched, decompressed, gathered) as mlocd serves it:
// a sub-volume two to three chunks across — 64×64 on the 512² field's
// col/iso/isa stores, 16³ on the 64³ field — over 100 bins with the
// hierarchical index, 4 ranks and a shared decode cache, cold (1 MiB
// against an 8 MiB decoded field, so units keep being evicted) and warm
// (64 MiB, every unit resident after the first pass). A unit holds about
// ten values here, so what the engine pays per unit rather than per bin
// is what this measures. scripts/bench_json.sh distills ns/op, B/op and
// allocs/op into the value_path section of BENCH_query.json, and a run
// past 2x the committed ns/op or B/op fails, as BenchmarkResultPath does.
func BenchmarkValuePath(b *testing.B) {
	const ranks, boxes = 4, 32
	gts := datagen.GTSLike(512, 512, 1)
	phi, _ := gts.Var("phi")
	s3d := datagen.S3DLike(64, 1)
	temp, err := s3d.Var("temp")
	if err != nil {
		b.Fatal(err)
	}
	stores := []struct {
		name  string
		shape grid.Shape
		data  []float64
		cfg   core.Config
		side  int
	}{
		{"col", gts.Shape, phi.Data, core.DefaultConfig([]int{32, 32}), 64},
		{"iso", gts.Shape, phi.Data, core.ISOConfig([]int{32, 32}), 64},
		{"isa", gts.Shape, phi.Data, core.ISAConfig([]int{32, 32}), 64},
		{"s3d", s3d.Shape, temp.Data, core.DefaultConfig([]int{16, 16, 16}), 16},
	}
	doc := loadBenchQueryDoc()
	for _, sp := range stores {
		cfg := sp.cfg
		cfg.NumBins = 100
		cfg.HierarchicalIndex = true
		fs := pfs.New(pfs.DefaultConfig())
		st, err := core.Build(fs, fs.NewClock(), "vp/"+sp.name, sp.shape, sp.data, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		reqs := make([]*query.Request, boxes)
		want := 1
		for range sp.shape {
			want *= sp.side
		}
		for i := range reqs {
			lo, hi := make([]int, len(sp.shape)), make([]int, len(sp.shape))
			for d, n := range sp.shape {
				lo[d] = r.Intn(n - sp.side + 1)
				hi[d] = lo[d] + sp.side
			}
			sc, err := grid.NewRegion(lo, hi)
			if err != nil {
				b.Fatal(err)
			}
			reqs[i] = &query.Request{SC: &sc}
		}
		for _, cm := range []struct {
			name  string
			bytes int64
		}{{"cold", 1 << 20}, {"warm", 64 << 20}} {
			name := sp.name + "/" + cm.name
			b.Run(name, func(b *testing.B) {
				c, err := cache.New(cm.bytes)
				if err != nil {
					b.Fatal(err)
				}
				st.SetDecodeCache(c)
				op := func(i int) {
					res, err := st.Query(reqs[i%boxes], ranks)
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Matches) != want {
						b.Fatalf("%d matches, want %d", len(res.Matches), want)
					}
				}
				for i := 0; i < boxes; i++ {
					op(i) // one pass: the warm cache and the pools fill, the cold cache starts evicting
				}
				b.ReportAllocs()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op(i)
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				if b.N == 1 {
					return // go test's probe run: one iteration is no measurement to gate on
				}
				nsOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
				bytesOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
				for _, base := range doc.ValuePath {
					if base.Case != name {
						continue
					}
					if base.NsOp > 0 && nsOp > 2*base.NsOp {
						b.Fatalf("%.0f ns/op exceeds 2x the committed %.0f (BENCH_query.json value_path %s)",
							nsOp, base.NsOp, name)
					}
					if base.BytesOp > 0 && bytesOp > 2*base.BytesOp {
						b.Fatalf("%.0f B/op exceeds 2x the committed %.0f (BENCH_query.json value_path %s)",
							bytesOp, base.BytesOp, name)
					}
				}
			})
		}
	}
}
