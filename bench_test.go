package mloc

// Query-path benchmarks behind BENCH_query.json: scripts/bench_json.sh
// runs BenchmarkQueryLatency, BenchmarkResultPath and BenchmarkValuePath
// and distills them into the committed checkpoint, which each one also
// gates itself against. The paper's tables and figures are regenerated
// by cmd/benchtables and gated by internal/experiments' claim tests.

import (
	"encoding/json"
	"fmt"
	"math"
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
		Index       string  `json:"index"`
		Codec       string  `json:"codec"`
		Sel         string  `json:"sel"`
		VirtSOp     float64 `json:"virt_s_op"`
		BinsPruned  int     `json:"bins_pruned"`
		BinsCovered int     `json:"bins_covered"`
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

// latencyRow is one committed query_latency row's virtual numbers.
type latencyRow struct {
	virt            float64
	pruned, covered int
}

// queryLatencyRows maps "index/codec/sel" to the committed row.
func queryLatencyRows() map[string]latencyRow {
	doc := loadBenchQueryDoc()
	out := make(map[string]latencyRow, len(doc.QueryLatency))
	for _, r := range doc.QueryLatency {
		out[r.Index+"/"+r.Codec+"/"+r.Sel] = latencyRow{r.VirtSOp, r.BinsPruned, r.BinsCovered}
	}
	return out
}

// checkLatencyRow reports how a measured row differs from the committed
// one: virtual seconds to 1e-9 relative, bin counts exactly. Virtual
// seconds are charged from models, so on any host they repeat; a change
// that moves one re-records the row in the same commit.
func checkLatencyRow(key string, got latencyRow, rows map[string]latencyRow) error {
	want, ok := rows[key]
	if !ok {
		return fmt.Errorf("BENCH_query.json has no query_latency row %s", key)
	}
	if math.Abs(got.virt-want.virt) > 1e-9*math.Abs(want.virt) || got.pruned != want.pruned || got.covered != want.covered {
		return fmt.Errorf("BENCH_query.json %s: virt_s_op %.12g, bins_pruned %d, bins_covered %d; committed %.12g, %d, %d",
			key, got.virt, got.pruned, got.covered, want.virt, want.pruned, want.covered)
	}
	return nil
}

// latencyCase is one cell of the query-latency matrix: an index-only
// range query on one store, and its row's key.
type latencyCase struct {
	key string
	st  *core.Store
	req *query.Request
}

// latencyRanks is the rank count every query-latency cell runs at.
const latencyRanks = 4

// queryLatencyCases builds the query-latency matrix: flat and
// hierarchical index, planes and ISOBAR codecs, three VC selectivities,
// on a 256x256 GTS field with 1 024 bins.
func queryLatencyCases(tb testing.TB) []latencyCase {
	const side, bins = 256, 1024
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
	var cases []latencyCase
	for _, c := range codecs {
		cfg := c.cfg
		cfg.NumBins = bins
		cfg.SampleSize = 1 << 16
		fs := pfs.New(pfs.DefaultConfig())
		for _, hier := range []bool{false, true} {
			name := "flat"
			if hier {
				name = "hier"
			}
			cfg.HierarchicalIndex = hier
			st, err := core.Build(fs, pfs.NewClock(), "bq/"+c.name+"/"+name, shape, data, cfg)
			if err != nil {
				tb.Fatal(err)
			}
			for _, sel := range sels {
				lo, hi := datagen.Selectivity(data, sel.frac, 17, 4096)
				cases = append(cases, latencyCase{
					key: name + "/" + c.name + "/" + sel.name,
					st:  st,
					req: &query.Request{VC: &binning.ValueConstraint{Min: lo, Max: hi}, IndexOnly: true},
				})
			}
		}
	}
	return cases
}

// TestQueryLatencyGolden recomputes every query_latency row of
// BENCH_query.json and requires its virtual seconds and bin counts to
// equal the committed ones.
func TestQueryLatencyGolden(t *testing.T) {
	rows := queryLatencyRows()
	for _, c := range queryLatencyCases(t) {
		res, err := c.st.Query(c.req, latencyRanks)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkLatencyRow(c.key, latencyRow{res.Time.Total(), res.BinsPruned, res.BinsCovered}, rows); err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkQueryLatency is the committed query-latency trajectory:
// flat vs hierarchical index across VC selectivities and codecs, on
// index-only range queries over a 256x256 GTS field with 1 024 bins.
// The headline metric is virt-fs/op — the virtual-clock latency of the
// slowest rank in femtoseconds, so that the benchmark line carries
// every digit scripts/bench_json.sh writes into BENCH_query.json as
// virt_s_op. Virtual seconds repeat on any host, so a run whose virtual
// latency or bin counts differ from the committed row fails, as
// TestQueryLatencyGolden does.
func BenchmarkQueryLatency(b *testing.B) {
	rows := queryLatencyRows()
	for _, c := range queryLatencyCases(b) {
		b.Run(c.key, func(b *testing.B) {
			b.ReportAllocs()
			var virt float64
			var pruned, covered int
			for i := 0; i < b.N; i++ {
				res, err := c.st.Query(c.req, latencyRanks)
				if err != nil {
					b.Fatal(err)
				}
				virt += res.Time.Total()
				pruned, covered = res.BinsPruned, res.BinsCovered
			}
			virtOp := virt / float64(b.N)
			b.ReportMetric(virtOp*1e15, "virt-fs/op")
			b.ReportMetric(float64(pruned), "bins-pruned/op")
			b.ReportMetric(float64(covered), "bins-covered/op")
			if len(rows) > 0 {
				if err := checkLatencyRow(c.key, latencyRow{virtOp, pruned, covered}, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
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
