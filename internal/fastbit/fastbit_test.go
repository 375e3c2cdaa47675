package fastbit

import (
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

func buildStore(t *testing.T, bins int) (*Store, []float64, grid.Shape) {
	t.Helper()
	d := datagen.GTSLike(32, 32, 2)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig()
	cfg.NumBins = bins
	st, err := Build(fs, pfs.NewClock(), "fb/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, v.Data, d.Shape
}

func bruteForce(data []float64, shape grid.Shape, req *query.Request) []query.Match {
	var out []query.Match
	coords := make([]int, shape.Dims())
	for i, v := range data {
		if req.VC != nil && !req.VC.Contains(v) {
			continue
		}
		if req.SC != nil {
			coords = shape.Coords(int64(i), coords[:0])
			if !req.SC.Contains(coords) {
				continue
			}
		}
		m := query.Match{Index: int64(i)}
		if !req.IndexOnly {
			m.Value = v
		}
		out = append(out, m)
	}
	return out
}

func matchesEqual(t *testing.T, got, want []query.Match, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

func TestBuildValidation(t *testing.T) {
	fs := pfs.New(pfs.DefaultConfig())
	if _, err := Build(fs, pfs.NewClock(), "x", grid.Shape{2, 2}, make([]float64, 3), DefaultConfig()); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Build(fs, pfs.NewClock(), "x", grid.Shape{2, 2}, make([]float64, 4), Config{NumBins: 0}); err == nil {
		t.Error("zero bins accepted")
	}
}

func TestRegionQueryMatchesBruteForce(t *testing.T) {
	st, data, shape := buildStore(t, 64)
	for _, sel := range []float64{0.01, 0.1} {
		lo, hi := datagen.Selectivity(data, sel, 11, 1024)
		vc := binning.ValueConstraint{Min: lo, Max: hi}
		req := &query.Request{VC: &vc}
		for _, ranks := range []int{1, 4} {
			res, err := st.Query(req, ranks)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, res.Matches, bruteForce(data, shape, req), "region query")
		}
	}
}

func TestIndexOnlyRegionQuery(t *testing.T) {
	st, data, shape := buildStore(t, 64)
	lo, hi := datagen.Selectivity(data, 0.05, 13, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	req := &query.Request{VC: &vc, IndexOnly: true}
	res, err := st.Query(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, req), "index-only")
}

func TestValueQueryWithSC(t *testing.T) {
	st, data, shape := buildStore(t, 32)
	sc, _ := grid.NewRegion([]int{4, 4}, []int{20, 24})
	req := &query.Request{SC: &sc}
	res, err := st.Query(req, 4)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, req), "SC-only query")
}

func TestCombinedQuery(t *testing.T) {
	st, data, shape := buildStore(t, 32)
	lo, hi := datagen.Selectivity(data, 0.3, 17, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	sc, _ := grid.NewRegion([]int{0, 8}, []int{16, 30})
	req := &query.Request{VC: &vc, SC: &sc}
	res, err := st.Query(req, 3)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, req), "combined")
}

func TestEveryQueryLoadsFullIndex(t *testing.T) {
	// The paper's central FastBit observation: queries pay the full
	// index load regardless of selectivity.
	st, data, _ := buildStore(t, 128)
	lo, hi := datagen.Selectivity(data, 0.01, 19, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	res, err := st.Query(&query.Request{VC: &vc, IndexOnly: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead < st.IndexBytes() {
		t.Fatalf("query read %d bytes < index size %d", res.BytesRead, st.IndexBytes())
	}
}

func TestIndexSizeGrowsWithBins(t *testing.T) {
	// Precision (fine) binning inflates the index — the regime behind
	// the paper's 10 GB index for 8 GB data.
	coarse, _, _ := buildStore(t, 16)
	fine, _, _ := buildStore(t, 512)
	if fine.IndexBytes() <= coarse.IndexBytes() {
		t.Fatalf("index did not grow with bins: %d (512 bins) <= %d (16 bins)",
			fine.IndexBytes(), coarse.IndexBytes())
	}
	if coarse.DataBytes() != fine.DataBytes() {
		t.Fatal("data size should be bin-independent")
	}
}

func TestQueryValidation(t *testing.T) {
	st, _, _ := buildStore(t, 16)
	if _, err := st.Query(&query.Request{}, 0); err == nil {
		t.Error("ranks=0 accepted")
	}
	bad := binning.ValueConstraint{Min: 1, Max: 0}
	if _, err := st.Query(&query.Request{VC: &bad}, 1); err == nil {
		t.Error("inverted VC accepted")
	}
	if _, err := st.Query(&query.Request{Rows: query.Rows{{Lo: 0, Hi: 1}}}, 1); err == nil {
		t.Error("row ranges accepted")
	}
}

func TestUnconstrainedQueryReturnsAll(t *testing.T) {
	st, data, shape := buildStore(t, 16)
	res, err := st.Query(&query.Request{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, &query.Request{}), "unconstrained")
}
