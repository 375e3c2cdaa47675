package core

import (
	"context"
	"math"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/cache"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// cachedAccess is one access of the decode-cache tests: how to run it,
// and its brute-force answer (values within tol of it, relative).
type cachedAccess struct {
	name string
	run  func() (*query.Result, error)
	want []query.Match
	tol  float64
}

// cachedAccesses builds a flat store (no vindex, so every bin is read
// through its own files) and the four access kinds a bin stage serves:
// an index-only region query whose VC covers aligned and misaligned
// bins, a VC+SC value query, a PLoD-3 read and a position fetch.
func cachedAccesses(t *testing.T) (*Store, *pfs.Sim, []cachedAccess) {
	t.Helper()
	data, shape := testData(t)
	fs := pfs.New(pfs.DefaultConfig())
	st, err := Build(fs, fs.NewClock(), "cache/phi", shape, data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := datagen.Selectivity(data, 0.4, 3, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	box, err := grid.NewRegion([]int{3, 5}, []int{27, 30})
	if err != nil {
		t.Fatal(err)
	}
	region := &query.Request{VC: &vc, SC: &box, IndexOnly: true}
	if p, err := st.planQuery(region); err != nil || p.aligned == 0 || p.misaligned == 0 {
		t.Fatalf("region plan: %v, %d aligned / %d misaligned bins; want both kinds", err, p.aligned, p.misaligned)
	}
	value := &query.Request{VC: &vc, SC: &box}
	plod3 := &query.Request{SC: &box, PLoDLevel: 3}
	positions := bitmap.New(shape.Elems())
	var fetched []query.Match
	for i := int64(0); i < shape.Elems(); i += 7 {
		positions.Set(i)
		fetched = append(fetched, query.Match{Index: i, Value: data[i]})
	}
	queryOf := func(req *query.Request) func() (*query.Result, error) {
		return func() (*query.Result, error) { return st.Query(req, 2) }
	}
	return st, fs, []cachedAccess{
		{"region", queryOf(region), bruteForce(data, shape, region), 0},
		{"value", queryOf(value), bruteForce(data, shape, value), 0},
		{"plod3", queryOf(plod3), bruteForce(data, shape, &query.Request{SC: &box}), relBound(3)},
		{"fetch", func() (*query.Result, error) { return st.FetchAtContext(context.Background(), positions, 2) }, fetched, 0},
	}
}

// checkAnswer fails unless got has want's indices, and values equal to
// want's (within tol, relative, when tol is set).
func checkAnswer(t *testing.T, label string, got, want []query.Match, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index {
			t.Fatalf("%s: match %d at %d, want %d", label, i, g.Index, w.Index)
		}
		if tol == 0 && g.Value != w.Value || tol > 0 && w.Value != 0 && math.Abs(g.Value-w.Value)/math.Abs(w.Value) > tol {
			t.Fatalf("%s: match %d value %v, want %v (tol %g)", label, i, g.Value, w.Value, tol)
		}
	}
}

// TestWarmBinStageOpensNoFile: run four accesses twice on one cache.
// The second run finds every unit of every bin stage whole in the
// cache, so it opens, seeks and reads nothing and charges no I/O or
// decompress time, and it answers exactly what the first run and brute
// force do.
func TestWarmBinStageOpensNoFile(t *testing.T) {
	st, fs, accesses := cachedAccesses(t)
	c, err := cache.New(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	st.SetDecodeCache(c)
	first := make([][]query.Match, len(accesses))
	for i, a := range accesses {
		res, err := a.run()
		if err != nil {
			t.Fatal(err)
		}
		checkAnswer(t, a.name+"/cold", res.Matches, a.want, a.tol)
		first[i] = res.Matches
	}
	for i, a := range accesses {
		before := fs.Stats()
		res, err := a.run()
		if err != nil {
			t.Fatal(err)
		}
		after := fs.Stats()
		if d := [3]int64{after.Opens - before.Opens, after.Reads - before.Reads, after.Seeks - before.Seeks}; d != [3]int64{} {
			t.Errorf("%s/warm: %d opens, %d reads, %d seeks; want none", a.name, d[0], d[1], d[2])
		}
		if res.Time.IO != 0 || res.Time.Decompress != 0 || res.BytesRead != 0 || res.BlocksRead != 0 {
			t.Errorf("%s/warm: io %v s, decompress %v s, %d bytes, %d blocks; want all 0",
				a.name, res.Time.IO, res.Time.Decompress, res.BytesRead, res.BlocksRead)
		}
		checkAnswer(t, a.name+"/warm", res.Matches, first[i], 0)
		checkAnswer(t, a.name+"/warm", res.Matches, a.want, a.tol)
	}
}

// TestCacheLevelsDoNotAlias: an offsets-only entry never answers a value
// read, a level-3 entry never answers a level-7 read and the reverse.
// On a cache that holds everything each first read at a level decodes
// every unit and each repeat decodes none; on one small enough to evict
// throughout, the answers stay exact.
func TestCacheLevelsDoNotAlias(t *testing.T) {
	st, data, shape := buildTestStore(t, testConfig())
	box, err := grid.NewRegion([]int{2, 1}, []int{30, 29})
	if err != nil {
		t.Fatal(err)
	}
	regionOnly := &query.Request{SC: &box, IndexOnly: true}
	full := &query.Request{SC: &box}
	plod3 := &query.Request{SC: &box, PLoDLevel: 3}
	st.SetDecodeCache(nil)
	ref3, err := st.Query(plod3, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.planQuery(full)
	if err != nil {
		t.Fatal(err)
	}
	units := len(p.tasks)
	want := map[*query.Request][]query.Match{
		regionOnly: bruteForce(data, shape, regionOnly),
		full:       bruteForce(data, shape, full),
		plod3:      ref3.Matches,
	}
	steps := []struct {
		req  *query.Request
		warm bool // an earlier step read this request's level
	}{
		{regionOnly, false}, // level-0 entries only
		{full, false},       // the offsets-only entries lend offsets, not values
		{plod3, false},      // the level-7 entries do not answer level 3
		{full, true},
		{plod3, true},
		{regionOnly, true},
	}
	for _, size := range []int64{8 << 20, 4 << 10} {
		c, err := cache.New(size)
		if err != nil {
			t.Fatal(err)
		}
		st.SetDecodeCache(c)
		for round := 0; round < 3; round++ {
			for i, s := range steps {
				res, err := st.Query(s.req, 2)
				if err != nil {
					t.Fatal(err)
				}
				matchesEqual(t, res.Matches, want[s.req], "step")
				if size < 1<<20 || round > 0 {
					continue
				}
				wantHits := 0
				if s.warm {
					wantHits = units
				}
				if res.CacheHits != wantHits {
					t.Errorf("step %d: %d of %d units served from the cache, want %d", i, res.CacheHits, units, wantHits)
				}
				if !s.req.IndexOnly && !s.warm && (res.BlocksRead != units || res.Time.Decompress == 0) {
					t.Errorf("step %d: decoded %d of %d units (decompress %v s); another level answered it",
						i, res.BlocksRead, units, res.Time.Decompress)
				}
			}
		}
		if size < 1<<20 && c.Stats().Evictions == 0 {
			t.Errorf("the %d-byte cache evicted nothing", size)
		}
	}
}

// TestCacheHitsCountUnitsServed pins one meaning for Result.CacheHits
// and the cache's hit and miss counters: the units a query served from
// the cache, and the ones it decoded. A cold index-only query records
// one miss per unit it touches and no hit, its repeat one hit per unit
// and no further miss, and each query's CacheHits is the cache's hit
// delta.
func TestCacheHitsCountUnitsServed(t *testing.T) {
	st, data, _ := buildTestStore(t, testConfig())
	lo, hi := datagen.Selectivity(data, 0.4, 3, 1024)
	req := &query.Request{VC: &binning.ValueConstraint{Min: lo, Max: hi}, IndexOnly: true}
	p, err := st.planQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	if p.aligned == 0 || p.misaligned == 0 {
		t.Fatalf("plan has %d aligned / %d misaligned bins; want both kinds", p.aligned, p.misaligned)
	}
	units := int64(len(p.tasks))
	c, err := cache.New(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	st.SetDecodeCache(c)
	for run, want := range []cache.Stats{{Misses: units}, {Hits: units, Misses: units}} {
		before := c.Stats().Hits
		res, err := st.Query(req, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := c.Stats()
		if got.Hits != want.Hits || got.Misses != want.Misses {
			t.Errorf("run %d over %d units: %d hits, %d misses; want %d, %d", run, units, got.Hits, got.Misses, want.Hits, want.Misses)
		}
		if int64(res.CacheHits) != got.Hits-before {
			t.Errorf("run %d: Result.CacheHits %d, cache hit delta %d", run, res.CacheHits, got.Hits-before)
		}
	}
}
