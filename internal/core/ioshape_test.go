package core

import (
	"context"
	"fmt"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/cache"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// ioShape is the deterministic footprint of one access: what it returned
// and what it cost the simulator. FetchAt and MultiVarQuery have no
// benchmark workload, so these counters are their regression gate.
// (MultiVarResult carries no block or cache-hit counts; they stay 0
// there.)
type ioShape struct {
	matches             int
	bytes               int64
	reads, seeks, opens int64
	blocks, cacheHits   int
}

// wantIOShapes was recorded at the parent of the PR that moved FetchAt
// onto the query executor (commit 8b4a03b) and must not move. The r3
// rows were re-recorded once, when the column split stopped cutting the
// task sequence into equal counts and cut it where the ranks' modelled
// I/O balances: on these small stores every cut now falls on a bin
// boundary, so no bin's files are opened and read by two ranks. Each r3
// row lost exactly the opens (and the seek and read of each) of the bins
// the equal-count split had shared, and the bytes those ranks re-read
// through coalesced gaps, so every r3 row now equals its r1 row. No r1
// row moved. The warm rows were re-recorded once more, when the decode
// cache began keeping each unit's offsets with its values (and the
// offsets alone of a unit the bitmap selects nothing in): a warm fetch
// reads no index, so its reads, seeks, opens and bytes fall to 0, and
// every unit it visits is served from the cache, so its cache hits count
// all of them (282 or 727), not only the units whose values it decoded
// cold. No cold or nocache row moved.
var wantIOShapes = map[string]ioShape{
	// name: {matches, bytes, reads, seeks, opens, blocks, cacheHits}
	"fetch/col/sel0.01/r1/cold":            {40, 6374, 13, 13, 13, 25, 0},
	"fetch/col/sel0.01/r1/nocache":         {40, 6374, 13, 13, 13, 25, 0},
	"fetch/col/sel0.01/r1/warm":            {40, 0, 0, 0, 0, 0, 282},
	"fetch/col/sel0.01/r3/cold":            {40, 6374, 13, 13, 13, 25, 0},
	"fetch/col/sel0.01/r3/nocache":         {40, 6374, 13, 13, 13, 25, 0},
	"fetch/col/sel0.01/r3/warm":            {40, 0, 0, 0, 0, 0, 282},
	"fetch/col/sel0.1/r1/cold":             {409, 12234, 15, 15, 15, 106, 0},
	"fetch/col/sel0.1/r1/nocache":          {409, 12234, 15, 15, 15, 106, 0},
	"fetch/col/sel0.1/r1/warm":             {409, 0, 0, 0, 0, 0, 727},
	"fetch/col/sel0.1/r3/cold":             {409, 12234, 15, 15, 15, 106, 0},
	"fetch/col/sel0.1/r3/nocache":          {409, 12234, 15, 15, 15, 106, 0},
	"fetch/col/sel0.1/r3/warm":             {409, 0, 0, 0, 0, 0, 727},
	"fetch/col/sel0.5/r1/cold":             {2048, 22742, 19, 19, 19, 419, 0},
	"fetch/col/sel0.5/r1/nocache":          {2048, 22742, 19, 19, 19, 419, 0},
	"fetch/col/sel0.5/r1/warm":             {2048, 0, 0, 0, 0, 0, 727},
	"fetch/col/sel0.5/r3/cold":             {2048, 22742, 19, 19, 19, 419, 0},
	"fetch/col/sel0.5/r3/nocache":          {2048, 22742, 19, 19, 19, 419, 0},
	"fetch/col/sel0.5/r3/warm":             {2048, 0, 0, 0, 0, 0, 727},
	"fetch/iso/sel0.01/r1/cold":            {40, 7143, 13, 13, 13, 25, 0},
	"fetch/iso/sel0.01/r1/nocache":         {40, 7143, 13, 13, 13, 25, 0},
	"fetch/iso/sel0.01/r1/warm":            {40, 0, 0, 0, 0, 0, 282},
	"fetch/iso/sel0.01/r3/cold":            {40, 7143, 13, 13, 13, 25, 0},
	"fetch/iso/sel0.01/r3/nocache":         {40, 7143, 13, 13, 13, 25, 0},
	"fetch/iso/sel0.01/r3/warm":            {40, 0, 0, 0, 0, 0, 282},
	"fetch/iso/sel0.1/r1/cold":             {409, 14866, 15, 15, 15, 106, 0},
	"fetch/iso/sel0.1/r1/nocache":          {409, 14866, 15, 15, 15, 106, 0},
	"fetch/iso/sel0.1/r1/warm":             {409, 0, 0, 0, 0, 0, 727},
	"fetch/iso/sel0.1/r3/cold":             {409, 14866, 15, 15, 15, 106, 0},
	"fetch/iso/sel0.1/r3/nocache":          {409, 14866, 15, 15, 15, 106, 0},
	"fetch/iso/sel0.1/r3/warm":             {409, 0, 0, 0, 0, 0, 727},
	"fetch/iso/sel0.5/r1/cold":             {2048, 29137, 19, 19, 19, 419, 0},
	"fetch/iso/sel0.5/r1/nocache":          {2048, 29137, 19, 19, 19, 419, 0},
	"fetch/iso/sel0.5/r1/warm":             {2048, 0, 0, 0, 0, 0, 727},
	"fetch/iso/sel0.5/r3/cold":             {2048, 29137, 19, 19, 19, 419, 0},
	"fetch/iso/sel0.5/r3/nocache":          {2048, 29137, 19, 19, 19, 419, 0},
	"fetch/iso/sel0.5/r3/warm":             {2048, 0, 0, 0, 0, 0, 727},
	"multivar/vc/sel0.05/r1/cache=false":   {172, 33646, 36, 36, 36, 0, 0},
	"multivar/vc/sel0.05/r1/cache=true":    {172, 33646, 36, 36, 36, 0, 0},
	"multivar/vc/sel0.05/r3/cache=false":   {172, 33646, 36, 36, 36, 0, 0},
	"multivar/vc/sel0.05/r3/cache=true":    {172, 33646, 36, 36, 36, 0, 0},
	"multivar/vc/sel0.3/r1/cache=false":    {1036, 34707, 37, 37, 37, 0, 0},
	"multivar/vc/sel0.3/r1/cache=true":     {1036, 34707, 37, 37, 37, 0, 0},
	"multivar/vc/sel0.3/r3/cache=false":    {1036, 34707, 37, 37, 37, 0, 0},
	"multivar/vc/sel0.3/r3/cache=true":     {1036, 34707, 37, 37, 37, 0, 0},
	"multivar/vcsc/sel0.05/r1/cache=false": {84, 30033, 36, 36, 36, 0, 0},
	"multivar/vcsc/sel0.05/r1/cache=true":  {84, 30033, 36, 36, 36, 0, 0},
	"multivar/vcsc/sel0.05/r3/cache=false": {84, 30033, 36, 36, 36, 0, 0},
	"multivar/vcsc/sel0.05/r3/cache=true":  {84, 30033, 36, 36, 36, 0, 0},
	"multivar/vcsc/sel0.3/r1/cache=false":  {492, 30702, 37, 37, 37, 0, 0},
	"multivar/vcsc/sel0.3/r1/cache=true":   {492, 30702, 37, 37, 37, 0, 0},
	"multivar/vcsc/sel0.3/r3/cache=false":  {492, 30702, 37, 37, 37, 0, 0},
	"multivar/vcsc/sel0.3/r3/cache=true":   {492, 30702, 37, 37, 37, 0, 0},
}

// positionsOf answers req index-only and returns the answer as a bitmap.
func positionsOf(t *testing.T, st *Store, req query.Request) *bitmap.Bitmap {
	t.Helper()
	req.IndexOnly = true
	res, err := st.Query(&req, 2)
	if err != nil {
		t.Fatal(err)
	}
	bm := bitmap.New(st.Shape().Elems())
	for _, m := range res.Matches {
		bm.Set(m.Index)
	}
	return bm
}

func TestPositionFetchIOShapePinned(t *testing.T) {
	got := map[string]ioShape{}
	record := func(name string, fs *pfs.Sim, run func() ioShape) {
		fs.ResetStats()
		s := run()
		st := fs.Stats()
		s.reads, s.seeks, s.opens = st.Reads, st.Seeks, st.Opens
		got[name] = s
	}

	// FetchAt: col and iso stores × three selectivities × 1 and 3 ranks,
	// without a cache, then cold and warm with one.
	d := datagen.GTSLike(64, 64, 5)
	phi, _ := d.Var("phi")
	iso := ISOConfig([]int{8, 8})
	for _, sc := range []struct {
		name string
		cfg  Config
	}{{"col", DefaultConfig([]int{8, 8})}, {"iso", iso}} {
		sc.cfg.NumBins = 12
		sc.cfg.SampleSize = 2048
		fs := pfs.New(pfs.DefaultConfig())
		st, err := Build(fs, fs.NewClock(), "shape/"+sc.name, d.Shape, phi.Data, sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0.01, 0.10, 0.50} {
			lo, hi := datagen.Selectivity(phi.Data, frac, 11, 4096)
			pos := positionsOf(t, st, query.Request{VC: &binning.ValueConstraint{Min: lo, Max: hi}})
			for _, ranks := range []int{1, 3} {
				fetch := func() ioShape {
					res, err := st.FetchAtContext(context.Background(), pos, ranks)
					if err != nil {
						t.Fatal(err)
					}
					return ioShape{matches: len(res.Matches), bytes: res.BytesRead, blocks: res.BlocksRead, cacheHits: res.CacheHits}
				}
				name := fmt.Sprintf("fetch/%s/sel%g/r%d", sc.name, frac, ranks)
				st.SetDecodeCache(nil)
				record(name+"/nocache", fs, fetch)
				c, err := cache.New(8 << 20)
				if err != nil {
					t.Fatal(err)
				}
				st.SetDecodeCache(c)
				record(name+"/cold", fs, fetch)
				record(name+"/warm", fs, fetch)
			}
		}
	}

	// MultiVarQuery: select on temp, fetch two variables.
	stores, s3d := buildMultiVarStores(t)
	temp, _ := s3d.Var("temp")
	fs := stores["temp"].fs
	half, _ := grid.NewRegion([]int{0, 0, 0}, []int{6, 12, 12})
	for _, frac := range []float64{0.05, 0.30} {
		lo, hi := datagen.Selectivity(temp.Data, frac, 5, 2048)
		vc := binning.ValueConstraint{Min: lo, Max: hi}
		for _, sel := range []struct {
			name string
			req  query.Request
		}{{"vc", query.Request{VC: &vc}}, {"vcsc", query.Request{VC: &vc, SC: &half}}} {
			for _, ranks := range []int{1, 3} {
				for _, cached := range []bool{false, true} {
					for _, st := range stores {
						st.SetDecodeCache(nil)
					}
					if cached {
						c, err := cache.New(8 << 20)
						if err != nil {
							t.Fatal(err)
						}
						for _, st := range stores {
							st.SetDecodeCache(c)
						}
					}
					name := fmt.Sprintf("multivar/%s/sel%g/r%d/cache=%v", sel.name, frac, ranks, cached)
					record(name, fs, func() ioShape {
						res, err := MultiVarQuery(stores, "temp", MultiVarRequest{Select: sel.req, FetchVars: []string{"vu", "vw"}}, ranks)
						if err != nil {
							t.Fatal(err)
						}
						return ioShape{matches: len(res.Values["vu"]) + len(res.Values["vw"]), bytes: res.BytesRead}
					})
				}
			}
		}
	}

	for name, g := range got {
		if w, ok := wantIOShapes[name]; !ok || g != w {
			t.Errorf("%q: {%d, %d, %d, %d, %d, %d, %d},", name, g.matches, g.bytes, g.reads, g.seeks, g.opens, g.blocks, g.cacheHits)
		}
	}
	if len(got) != len(wantIOShapes) {
		t.Errorf("%d cases ran, %d are pinned", len(got), len(wantIOShapes))
	}
}
