package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
	"mloc/internal/sfc"
)

// planAllUnits is the planner the chunk-map walk replaced, kept as the
// test's reference: bins selected by the flat scheme less those under a
// vindex node an index-only plan reads, then every unit of every
// selected bin checked against a set of the SC's chunk ids.
func planAllUnits(s *Store, req *query.Request) ([]task, int) {
	var sel []binSel
	switch {
	case req.VC != nil:
		byNode := map[int]bool{}
		if req.IndexOnly {
			for _, n := range s.tree.Select(*req.VC).Inside {
				lo, hi := s.tree.Leaves(n)
				for b := lo; b < hi && s.vidx.holds(n); b++ {
					byNode[b] = true
				}
			}
		}
		aligned, mis := s.scheme.SelectBins(*req.VC)
		for _, b := range aligned {
			if !byNode[b] {
				sel = append(sel, binSel{b, false})
			}
		}
		for _, b := range mis {
			sel = append(sel, binSel{b, true})
		}
		slices.SortFunc(sel, func(a, b binSel) int { return a.bin - b.bin })
	default:
		for b := range s.meta.bins {
			sel = append(sel, binSel{b, false})
		}
	}
	var chunkSet map[int64]bool
	if req.SC != nil {
		chunkSet = make(map[int64]bool)
		for _, id := range s.chunks.OverlappingChunks(*req.SC) {
			chunkSet[id] = true
		}
	}
	var tasks []task
	binsTouched := 0
	for _, bs := range sel {
		touched := false
		for ui, u := range s.meta.bins[bs.bin].units {
			if chunkSet != nil && !chunkSet[u.chunkID] {
				continue
			}
			tasks = append(tasks, task{bin: bs.bin, unit: ui, needData: !req.IndexOnly || bs.filterVC, filterVC: bs.filterVC})
			touched = true
		}
		if touched {
			binsTouched++
		}
	}
	return tasks, binsTouched
}

// fetchAllUnits is the reference in its position-fetch form, the scan
// FetchAt used to carry: every unit of every bin checked against the set
// of chunks holding a selected position.
func fetchAllUnits(s *Store, positions *bitmap.Bitmap) ([]task, int) {
	chunkHits := make(map[int64]bool)
	coords := make([]int, s.meta.shape.Dims())
	positions.Each(func(i int64) {
		coords = s.meta.shape.Coords(i, coords[:0])
		chunkHits[s.chunks.ChunkIDOf(coords)] = true
	})
	var tasks []task
	binsTouched := 0
	for b := range s.meta.bins {
		first := len(tasks)
		for ui, u := range s.meta.bins[b].units {
			if chunkHits[u.chunkID] {
				tasks = append(tasks, task{bin: b, unit: ui, needData: true})
			}
		}
		if len(tasks) > first {
			binsTouched++
		}
	}
	return tasks, binsTouched
}

// TestPlanMatchesAllUnitsScan: planning through each bin's chunk map
// yields exactly the task list and bin count of the all-units scan, for
// every request kind on 2-D and 3-D stores under both curves — SCs that
// reach past the grid edge and SCs that miss every unit of some bins
// included — and for position fetches from empty to dense bitmaps.
func TestPlanMatchesAllUnitsScan(t *testing.T) {
	gts := datagen.GTSLike(64, 64, 3)
	phi, _ := gts.Var("phi")
	s3d := datagen.S3DLike(16, 3)
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
		{"3d", s3d.Shape, temp.Data, []int{4, 4, 4}},
	}
	r := rand.New(rand.NewSource(19))
	for _, f := range fields {
		for _, curve := range []sfc.CurveKind{sfc.CurveRowMajor, sfc.CurveHilbert} {
			cfg := DefaultConfig(f.chunk)
			cfg.NumBins = 24
			cfg.SampleSize = 2048
			cfg.Curve = curve
			cfg.HierarchicalIndex = true
			fs := pfs.New(pfs.DefaultConfig())
			st, err := Build(fs, fs.NewClock(), "plan/"+f.name, f.shape, f.data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sparse := 0 // SC requests that skipped a selected bin entirely
			for i := 0; i < 50; i++ {
				req := &query.Request{IndexOnly: i%2 == 1}
				kind := i % 4 // SC, VC, VC+SC, SC again (odd i: index-only)
				if kind != 1 {
					lo, hi := make([]int, len(f.shape)), make([]int, len(f.shape))
					for d, n := range f.shape {
						// Small boxes, a third of them hanging over the edge.
						w := 1 + r.Intn(n/3)
						lo[d] = r.Intn(n)
						hi[d] = lo[d] + w
						if i%3 != 0 {
							hi[d] = min(hi[d], n)
						}
					}
					sc, err := grid.NewRegion(lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					req.SC = &sc
				}
				if kind == 1 || kind == 2 {
					a, b := datagen.Selectivity(f.data, 0.05+0.6*r.Float64(), int64(i), 512)
					req.VC = &binning.ValueConstraint{Min: a, Max: b}
				}
				name := fmt.Sprintf("%s/%s/req%d", f.name, curve, i)
				want, wantBins := planAllUnits(st, req)
				p, err := st.planQuery(req)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(p.tasks, want) {
					t.Fatalf("%s: %d tasks, all-units scan gives %d (or the order differs)", name, len(p.tasks), len(want))
				}
				if p.bins != wantBins {
					t.Fatalf("%s: binsTouched = %d, all-units scan gives %d", name, p.bins, wantBins)
				}
				if req.SC != nil && req.VC == nil && wantBins < st.NumBins() {
					sparse++
				}
			}
			if sparse == 0 {
				t.Errorf("%s/%s: no SC skipped a whole bin; the sparse case is not exercised", f.name, curve)
			}
			// Position fetches: no position, one, a sprinkle, a blob, all.
			n := f.shape.Elems()
			for i, density := range []float64{0, 0, 0.001, 0.02, 0.3, 1} {
				bm := bitmap.New(n)
				if i == 1 {
					bm.Set(r.Int63n(n))
				}
				for j := int64(0); j < n; j++ {
					if r.Float64() < density {
						bm.Set(j)
					}
				}
				want, wantBins := fetchAllUnits(st, bm)
				p, err := st.planFetch(bm)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(p.tasks, want) || p.bins != wantBins {
					t.Fatalf("%s/%s/fetch%d: %d tasks in %d bins, all-units scan gives %d in %d (or the order differs)",
						f.name, curve, i, len(p.tasks), p.bins, len(want), wantBins)
				}
				if (len(want) == 0) != (bm.Count() == 0) {
					t.Fatalf("%s/%s/fetch%d: %d positions planned as %d tasks", f.name, curve, i, bm.Count(), len(want))
				}
			}
		}
	}
}
