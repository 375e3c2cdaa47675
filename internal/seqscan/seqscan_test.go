package seqscan

import (
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

func buildStore(t *testing.T) (*Store, []float64, grid.Shape) {
	t.Helper()
	d := datagen.GTSLike(32, 32, 1)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	st, err := Build(fs, pfs.NewClock(), "seq/phi", d.Shape, v.Data)
	if err != nil {
		t.Fatal(err)
	}
	return st, v.Data, d.Shape
}

// bruteForce computes the expected matches directly.
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
	if _, err := Build(fs, pfs.NewClock(), "x", grid.Shape{4, 4}, make([]float64, 5)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Build(fs, pfs.NewClock(), "x", grid.Shape{0}, nil); err == nil {
		t.Error("bad shape accepted")
	}
}

func TestValueQueryMatchesBruteForce(t *testing.T) {
	st, data, shape := buildStore(t)
	sc, _ := grid.NewRegion([]int{5, 7}, []int{20, 25})
	req := &query.Request{SC: &sc}
	for _, ranks := range []int{1, 3, 8} {
		res, err := st.Query(req, ranks)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, res.Matches, bruteForce(data, shape, req), "value query")
		if res.Time.IO <= 0 {
			t.Error("no IO time charged")
		}
	}
}

func TestRegionQueryMatchesBruteForce(t *testing.T) {
	st, data, shape := buildStore(t)
	lo, hi := datagen.Selectivity(data, 0.05, 3, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	req := &query.Request{VC: &vc}
	for _, ranks := range []int{1, 4} {
		res, err := st.Query(req, ranks)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, res.Matches, bruteForce(data, shape, req), "region query")
		// Full scan must read the whole file.
		if res.BytesRead != 8*shape.Elems() {
			t.Errorf("region query read %d bytes, want full %d", res.BytesRead, 8*shape.Elems())
		}
	}
}

func TestCombinedQuery(t *testing.T) {
	st, data, shape := buildStore(t)
	lo, hi := datagen.Selectivity(data, 0.2, 5, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	sc, _ := grid.NewRegion([]int{0, 0}, []int{16, 16})
	req := &query.Request{VC: &vc, SC: &sc}
	res, err := st.Query(req, 4)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, req), "combined query")
}

func TestIndexOnlyQuery(t *testing.T) {
	st, data, shape := buildStore(t)
	lo, hi := datagen.Selectivity(data, 0.1, 7, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	req := &query.Request{VC: &vc, IndexOnly: true}
	res, err := st.Query(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, req), "index-only query")
	for _, m := range res.Matches {
		if m.Value != 0 {
			t.Fatal("index-only match carries a value")
		}
	}
}

func TestValueQueryReadsLessThanScan(t *testing.T) {
	st, _, shape := buildStore(t)
	sc, _ := grid.NewRegion([]int{0, 0}, []int{4, 4})
	res, err := st.Query(&query.Request{SC: &sc}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead >= 8*shape.Elems()/4 {
		t.Fatalf("SC-only query read %d bytes of %d total", res.BytesRead, 8*shape.Elems())
	}
}

func TestQueryValidation(t *testing.T) {
	st, _, _ := buildStore(t)
	if _, err := st.Query(&query.Request{}, 0); err == nil {
		t.Error("ranks=0 accepted")
	}
	badSC := grid.Region{Lo: []int{0}, Hi: []int{4}}
	if _, err := st.Query(&query.Request{SC: &badSC}, 1); err == nil {
		t.Error("wrong-arity SC accepted")
	}
	badVC := binning.ValueConstraint{Min: 2, Max: 1}
	if _, err := st.Query(&query.Request{VC: &badVC}, 1); err == nil {
		t.Error("inverted VC accepted")
	}
	if _, err := st.Query(&query.Request{Rows: query.Rows{{Lo: 0, Hi: 1}}}, 1); err == nil {
		t.Error("row ranges accepted")
	}
}

func TestStorageBytes(t *testing.T) {
	st, data, _ := buildStore(t)
	sz, err := st.StorageBytes()
	if err != nil {
		t.Fatal(err)
	}
	if sz != int64(8*len(data)) {
		t.Fatalf("StorageBytes = %d, want %d", sz, 8*len(data))
	}
}

func TestRowRuns3D(t *testing.T) {
	shape := grid.Shape{4, 4, 8}
	region, _ := grid.NewRegion([]int{1, 1, 2}, []int{3, 3, 6})
	runs := rowRuns(shape, region)
	// 2 z-planes × 2 rows = 4 runs of length 4.
	if len(runs) != 4 {
		t.Fatalf("rowRuns = %d runs, want 4", len(runs))
	}
	for _, r := range runs {
		if r.count != 4 {
			t.Fatalf("run length %d, want 4", r.count)
		}
	}
	// 1-D region.
	runs1 := rowRuns(grid.Shape{16}, grid.Region{Lo: []int{3}, Hi: []int{9}})
	if len(runs1) != 1 || runs1[0].start != 3 || runs1[0].count != 6 {
		t.Fatalf("1-D rowRuns = %+v", runs1)
	}
	// Empty region.
	if runs := rowRuns(shape, grid.Region{Lo: []int{0, 0, 0}, Hi: []int{0, 0, 0}}); runs != nil {
		t.Fatalf("empty region produced runs %v", runs)
	}
}
