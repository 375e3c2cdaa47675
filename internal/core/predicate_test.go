package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/cache"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// TestEmptyPredicatesAreEmptyPlans: a predicate no point can satisfy — an
// SC of zero volume (Lo == Hi passes Validate, and OverlappingChunks
// returns nil for it) or an all-zero position bitmap — plans no task, so
// the answer is empty and the PFS is never touched. The nil chunk list
// must not read as "unconstrained".
func TestEmptyPredicatesAreEmptyPlans(t *testing.T) {
	data, shape := testData(t)
	hierCfg := testConfig()
	hierCfg.HierarchicalIndex = true
	lo, hi := datagen.Selectivity(data, 0.4, 1, 512)
	vc := &binning.ValueConstraint{Min: lo, Max: hi}
	flatSC, err := grid.NewRegion([]int{5, 0}, []int{5, 32})
	if err != nil {
		t.Fatal(err)
	}
	pointSC, err := grid.NewRegion([]int{7, 9}, []int{7, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		name string
		cfg  Config
	}{{"flat", testConfig()}, {"hier", hierCfg}} {
		fs := pfs.New(pfs.DefaultConfig())
		st, err := Build(fs, fs.NewClock(), "empty/"+sc.name, shape, data, sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		untouched := func(label string, res *query.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, label, err)
			}
			if s := fs.Stats(); len(res.Matches) != 0 || res.BytesRead != 0 || s.Opens != 0 || s.Reads != 0 {
				t.Errorf("%s/%s: %d matches, %d bytes, %d opens, %d reads; an empty predicate costs nothing",
					sc.name, label, len(res.Matches), res.BytesRead, s.Opens, s.Reads)
			}
		}
		for _, ranks := range []int{1, 3} {
			for _, region := range []*grid.Region{&flatSC, &pointSC} {
				// (Index-only with a VC on the hierarchical store is left
				// out: its inside subtrees are read whatever the SC.)
				for i, req := range []*query.Request{
					{SC: region},
					{SC: region, IndexOnly: true},
					{SC: region, VC: vc},
					{SC: region, PLoDLevel: 2},
				} {
					if err := req.Validate(shape); err != nil {
						t.Fatal(err)
					}
					fs.ResetStats()
					res, err := st.Query(req, ranks)
					untouched(fmt.Sprintf("sc %v request %d ranks %d", *region, i, ranks), res, err)
				}
			}
			fs.ResetStats()
			res, err := st.FetchAtContext(context.Background(), bitmap.New(shape.Elems()), ranks)
			untouched(fmt.Sprintf("zero bitmap ranks %d", ranks), res, err)
		}
	}
}

// TestRowRangesEqualPerRangeQueries: a request restricted to several
// row ranges is one plan whose answer is exactly the merge of one query
// per range (its SC cut to that range's rows) — on flat and
// hierarchical stores, in 2-D and 3-D, for value, index-only, spatial
// and PLoD requests — and it opens no more files than those queries
// together.
func TestRowRangesEqualPerRangeQueries(t *testing.T) {
	gts := datagen.GTSLike(40, 36, 5)
	phi, _ := gts.Var("phi")
	s3d := datagen.S3DLike(12, 4)
	temp, err := s3d.Var("temp")
	if err != nil {
		t.Fatal(err)
	}
	fields := []struct {
		name  string
		shape grid.Shape
		data  []float64
		chunk []int
	}{
		{"2d", gts.Shape, phi.Data, []int{8, 8}},
		{"3d", s3d.Shape, temp.Data, []int{5, 5, 5}},
	}
	r := rand.New(rand.NewSource(28))
	for _, f := range fields {
		for _, hier := range []bool{false, true} {
			cfg := DefaultConfig(f.chunk)
			cfg.NumBins = 9
			cfg.SampleSize = 1024
			cfg.HierarchicalIndex = hier
			fs := pfs.New(pfs.DefaultConfig())
			st, err := Build(fs, fs.NewClock(), fmt.Sprintf("rows/%s/%v", f.name, hier), f.shape, f.data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 24; i++ {
				label := fmt.Sprintf("%s hier=%v request %d", f.name, hier, i)
				req := query.Request{IndexOnly: i%4 == 1}
				if i%4 == 2 {
					req.PLoDLevel = 2
				}
				if i%4 != 3 {
					lo, hi := datagen.Selectivity(f.data, 0.02+0.5*r.Float64(), int64(i), 1024)
					req.VC = &binning.ValueConstraint{Min: lo, Max: hi}
				}
				sc := grid.FullRegion(f.shape)
				if i%2 == 0 {
					for d, n := range f.shape {
						sc.Lo[d] = r.Intn(n / 2)
						sc.Hi[d] = sc.Lo[d] + 1 + r.Intn(n-sc.Lo[d])
					}
					req.SC = &sc
				}
				// Random ascending, disjoint ranges inside the SC's rows,
				// some of them touching.
				for row := sc.Lo[0]; row < sc.Hi[0]; {
					lo := row + r.Intn(3)
					hi := min(lo+1+r.Intn(6), sc.Hi[0])
					if lo < hi {
						req.Rows = append(req.Rows, query.RowRange{Lo: lo, Hi: hi})
					}
					row = hi + r.Intn(2)*r.Intn(5)
				}
				if req.Rows == nil {
					continue
				}
				// run answers the request and, one query per range, its
				// reference; it reports the files each side opened.
				run := func(ranks int) (got, want *query.Result, opens, refOpens int64) {
					fs.ResetStats()
					got, err := st.Query(&req, ranks)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					opens = fs.Stats().Opens
					parts := make([]*query.Result, 0, len(req.Rows))
					fs.ResetStats()
					for _, rr := range req.Rows {
						one := req
						one.Rows = nil
						cut := grid.Region{Lo: slices.Clone(sc.Lo), Hi: slices.Clone(sc.Hi)}
						cut.Lo[0], cut.Hi[0] = rr.Lo, rr.Hi
						one.SC = &cut
						part, err := st.Query(&one, ranks)
						if err != nil {
							t.Fatalf("%s: range %v: %v", label, rr, err)
						}
						parts = append(parts, part)
					}
					return got, query.MergeResults(parts), opens, fs.Stats().Opens
				}
				got, want, _, _ := run(1 + r.Intn(4))
				matchesEqual(t, got.Matches, want.Matches, label)
				// On one rank every touched file is opened once by the plan
				// and at least once by the per-range queries.
				if _, _, opens, refOpens := run(1); opens > refOpens {
					t.Errorf("%s: one plan over %d ranges opened %d files, per-range queries %d",
						label, len(req.Rows), opens, refOpens)
				}
			}
		}
	}
}

// TestPositionFetchEqualsValueQuery: a position set is just another
// predicate. Fetching at the bitmap of a request's index-only answer
// returns exactly the matches of the value query with the same
// constraints — on col, iso and isa stores, in 2-D and 3-D, with and
// without a decode cache.
func TestPositionFetchEqualsValueQuery(t *testing.T) {
	gts := datagen.GTSLike(48, 48, 4)
	phi, _ := gts.Var("phi")
	s3d := datagen.S3DLike(12, 4)
	temp, err := s3d.Var("temp")
	if err != nil {
		t.Fatal(err)
	}
	fields := []struct {
		name  string
		shape grid.Shape
		data  []float64
		chunk []int
	}{
		{"2d", gts.Shape, phi.Data, []int{8, 8}},
		{"3d", s3d.Shape, temp.Data, []int{5, 5, 5}},
	}
	r := rand.New(rand.NewSource(21))
	for _, f := range fields {
		for _, sc := range []struct {
			name string
			cfg  Config
		}{{"col", DefaultConfig(f.chunk)}, {"iso", ISOConfig(f.chunk)}, {"isa", ISAConfig(f.chunk)}} {
			sc.cfg.NumBins = 9
			sc.cfg.SampleSize = 1024
			fs := pfs.New(pfs.DefaultConfig())
			st, err := Build(fs, fs.NewClock(), "pos/"+f.name+"/"+sc.name, f.shape, f.data, sc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				st.SetDecodeCache(nil)
				if i%2 == 1 {
					c, err := cache.New(4 << 20)
					if err != nil {
						t.Fatal(err)
					}
					st.SetDecodeCache(c)
				}
				req := query.Request{}
				if i%4 != 3 { // VC, VC, VC+SC (below), SC
					lo, hi := datagen.Selectivity(f.data, 0.02+0.5*r.Float64(), int64(i), 1024)
					req.VC = &binning.ValueConstraint{Min: lo, Max: hi}
				}
				if i%4 >= 2 {
					lo, hi := make([]int, len(f.shape)), make([]int, len(f.shape))
					for d, n := range f.shape {
						lo[d] = r.Intn(n)
						hi[d] = lo[d] + 1 + r.Intn(n-lo[d])
					}
					region, err := grid.NewRegion(lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					req.SC = &region
				}
				ranks := 1 + r.Intn(4)
				want, err := st.Query(&req, ranks)
				if err != nil {
					t.Fatal(err)
				}
				got, err := st.FetchAtContext(context.Background(), positionsOf(t, st, req), 1+r.Intn(4))
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, got.Matches, want.Matches, fmt.Sprintf("%s/%s request %d", f.name, sc.name, i))
			}
		}
	}
}
