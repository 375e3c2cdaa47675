package scidb

import (
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

func buildStore(t *testing.T, overlap int) (*Store, []float64, grid.Shape) {
	t.Helper()
	d := datagen.GTSLike(32, 32, 3)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{8, 8})
	cfg.Overlap = overlap
	st, err := Build(fs, pfs.NewClock(), "scidb/phi", d.Shape, v.Data, cfg)
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
	if _, err := Build(fs, pfs.NewClock(), "x", grid.Shape{4, 4}, make([]float64, 3), DefaultConfig([]int{2, 2})); err == nil {
		t.Error("length mismatch accepted")
	}
	cfg := DefaultConfig([]int{2, 2})
	cfg.Overlap = -1
	if _, err := Build(fs, pfs.NewClock(), "x", grid.Shape{4, 4}, make([]float64, 16), cfg); err == nil {
		t.Error("negative overlap accepted")
	}
	if _, err := Build(fs, pfs.NewClock(), "x", grid.Shape{4, 4}, make([]float64, 16), DefaultConfig([]int{2})); err == nil {
		t.Error("chunk arity mismatch accepted")
	}
}

func TestOverlapInflatesStorage(t *testing.T) {
	noOverlap, _, shape := buildStore(t, 0)
	withOverlap, _, _ := buildStore(t, 1)
	raw := 8 * shape.Elems()
	if noOverlap.StorageBytes() != raw {
		t.Fatalf("overlap-0 storage %d != raw %d", noOverlap.StorageBytes(), raw)
	}
	if withOverlap.StorageBytes() <= raw {
		t.Fatalf("overlap-1 storage %d did not grow over raw %d", withOverlap.StorageBytes(), raw)
	}
	f := float64(withOverlap.StorageBytes()) / float64(raw)
	// Paper: SciDB stored 8.8 GB for 8 GB (1.1x).
	if f < 1.01 || f > 2 {
		t.Fatalf("overlap factor %v outside plausible range", f)
	}
}

func TestValueQueryMatchesBruteForce(t *testing.T) {
	for _, overlap := range []int{0, 1, 2} {
		st, data, shape := buildStore(t, overlap)
		sc, _ := grid.NewRegion([]int{5, 3}, []int{25, 29})
		req := &query.Request{SC: &sc}
		for _, ranks := range []int{1, 4} {
			res, err := st.Query(req, ranks)
			if err != nil {
				t.Fatal(err)
			}
			matchesEqual(t, res.Matches, bruteForce(data, shape, req), "SC query")
		}
	}
}

func TestRegionQueryMatchesBruteForce(t *testing.T) {
	st, data, shape := buildStore(t, 1)
	lo, hi := datagen.Selectivity(data, 0.05, 23, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	req := &query.Request{VC: &vc}
	res, err := st.Query(req, 4)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, req), "VC query")
	if res.BlocksRead != 16 {
		t.Errorf("VC query scanned %d chunks, want all 16", res.BlocksRead)
	}
}

func TestSCQueryReadsOnlyTouchedChunks(t *testing.T) {
	st, _, _ := buildStore(t, 1)
	sc, _ := grid.NewRegion([]int{0, 0}, []int{8, 8}) // exactly chunk (0,0)
	res, err := st.Query(&query.Request{SC: &sc}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksRead != 1 {
		t.Fatalf("corner SC query read %d chunks, want 1", res.BlocksRead)
	}
}

func TestEnginePerCellCostCharged(t *testing.T) {
	// The modeled engine overhead must make full scans expensive in
	// virtual time even though the data is small.
	st, data, _ := buildStore(t, 1)
	lo, hi := datagen.Selectivity(data, 0.01, 29, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	res, err := st.Query(&query.Request{VC: &vc}, 1)
	if err != nil {
		t.Fatal(err)
	}
	minEngine := pfs.CPUSeconds(pfs.CPUSciDBCell, 32*32)
	if res.Time.Reconstruct < minEngine {
		t.Fatalf("engine CPU %v below per-cell floor %v", res.Time.Reconstruct, minEngine)
	}
}

func TestCombinedQuery(t *testing.T) {
	st, data, shape := buildStore(t, 1)
	lo, hi := datagen.Selectivity(data, 0.4, 31, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	sc, _ := grid.NewRegion([]int{10, 10}, []int{30, 30})
	req := &query.Request{VC: &vc, SC: &sc}
	res, err := st.Query(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, req), "combined")
}

func TestQueryValidation(t *testing.T) {
	st, _, _ := buildStore(t, 1)
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

func TestIndexOnly(t *testing.T) {
	st, data, shape := buildStore(t, 1)
	lo, hi := datagen.Selectivity(data, 0.1, 37, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	req := &query.Request{VC: &vc, IndexOnly: true}
	res, err := st.Query(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, req), "index-only")
}
