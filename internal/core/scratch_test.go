package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mloc/internal/binning"
	"mloc/internal/cache"
	"mloc/internal/compress"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/query"
)

// scratchStores builds the two stores the scratch tests alternate
// between: a 2-D and a 3-D field, so a recycled scratch changes its
// dimensionality, chunk shape and unit sizes from one query to the next.
func scratchStores(t *testing.T) (st2, st3 *Store) {
	t.Helper()
	gts := datagen.GTSLike(32, 32, 5)
	phi, _ := gts.Var("phi")
	s3d := datagen.S3DLike(16, 5)
	temp, err := s3d.Var("temp")
	if err != nil {
		t.Fatal(err)
	}
	fs := pfs.New(pfs.DefaultConfig())
	cfg2 := testConfig()
	cfg2.HierarchicalIndex = true
	st2, err = Build(fs, fs.NewClock(), "scratch/2d", gts.Shape, phi.Data, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := DefaultConfig([]int{4, 4, 4})
	cfg3.NumBins = 10
	cfg3.SampleSize = 512
	st3, err = Build(fs, fs.NewClock(), "scratch/3d", s3d.Shape, temp.Data, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	return st2, st3
}

// scratchRequests mixes full and reduced precision, region, value and
// index-only accesses over a box that cuts through chunks.
func scratchRequests(st *Store) []*query.Request {
	shape := st.Shape()
	lo, hi := make([]int, len(shape)), make([]int, len(shape))
	for d, n := range shape {
		lo[d], hi[d] = n/8+1, n-n/4-1
	}
	box, _ := grid.NewRegion(lo, hi)
	all := binning.ValueConstraint{Min: -1e30, Max: 1e30}
	return []*query.Request{
		{SC: &box},
		{SC: &box, PLoDLevel: 2},
		{VC: &all, PLoDLevel: 2},
		{VC: &all, SC: &box, PLoDLevel: plod.MaxLevel},
		{SC: &box, IndexOnly: true},
	}
}

// freshScratchAnswer runs req with the scratch pool emptied (two GC
// cycles clear a sync.Pool and its victim cache), so nothing an earlier
// query left behind can reach it.
func freshScratchAnswer(t *testing.T, st *Store, req *query.Request) []query.Match {
	t.Helper()
	runtime.GC()
	runtime.GC()
	res, err := st.Query(req, 3)
	if err != nil {
		t.Fatal(err)
	}
	return res.Matches
}

func sameMatches(a, b []query.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// TestScratchReuseAcrossStoresAndLevels: concurrent queries that take
// turns on a 2-D and a 3-D store, at PLoD 2 and 7, through pooled
// scratch and one small shared cache return exactly what a run on fresh
// scratch returns. Under -race this is the pooled scratch's contract.
func TestScratchReuseAcrossStoresAndLevels(t *testing.T) {
	st2, st3 := scratchStores(t)
	type job struct {
		st   *Store
		req  *query.Request
		want []query.Match
	}
	var jobs []job
	for _, st := range []*Store{st2, st3} {
		for _, req := range scratchRequests(st) {
			jobs = append(jobs, job{st, req, freshScratchAnswer(t, st, req)})
		}
	}
	// Interleave the two stores: job i and job i+1 differ in dimensions.
	half := len(jobs) / 2
	order := make([]job, 0, len(jobs))
	for i := 0; i < half; i++ {
		order = append(order, jobs[i], jobs[half+i])
	}
	c, err := cache.New(16 << 10) // small: entries are evicted and re-decoded throughout
	if err != nil {
		t.Fatal(err)
	}
	st2.SetDecodeCache(c)
	st3.SetDecodeCache(c)

	const goroutines, iters = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				j := order[(g+it)%len(order)]
				res, err := j.st.Query(j.req, 1+(g+it)%4)
				if err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if !sameMatches(res.Matches, j.want) {
					t.Errorf("goroutine %d iter %d (%s, PLoD %d): answer differs from the fresh-scratch run",
						g, it, j.st.Prefix(), j.req.PLoDLevel)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAbortedQueryLeavesScratchUsable: a query canceled mid-rank and a
// query that fails on a corrupt bin both hand their scratch back (the
// deferred Put in QueryContext), half-filled; whoever gets it next must
// not see any of it.
func TestAbortedQueryLeavesScratchUsable(t *testing.T) {
	st2, st3 := scratchStores(t)
	reqs := scratchRequests(st3)
	want := make([][]query.Match, len(reqs))
	for i, req := range reqs {
		want[i] = freshScratchAnswer(t, st3, req)
	}
	check := func(after string) {
		t.Helper()
		for i, req := range reqs {
			res, err := st3.Query(req, 2)
			if err != nil {
				t.Fatalf("after %s: %v", after, err)
			}
			if !sameMatches(res.Matches, want[i]) {
				t.Fatalf("after %s: request %d differs from the fresh-scratch run", after, i)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var binsSeen atomic.Int64
	st2.hookBeforeBin = func(int) {
		if binsSeen.Add(1) == 3 {
			cancel()
		}
	}
	all := binning.ValueConstraint{Min: -1e30, Max: 1e30}
	if _, err := st2.QueryContext(ctx, &query.Request{VC: &all}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: err = %v, want context.Canceled", err)
	}
	st2.hookBeforeBin = nil
	check("a canceled query")

	if err := st2.fs.Delete(binDataPath(st2.prefix, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Query(&query.Request{VC: &all}, 2); err == nil {
		t.Fatal("query over a deleted bin data file succeeded")
	}
	check("a failed query")
}

// A spatial constraint that covers a sliver of the chunks it touches
// must bound what a query allocates for its matches by its own volume,
// not by the point count of those chunks — on the unit path and the
// vindex path. The match buffer is pooled, so its capacity says what
// earlier queries needed; what is measured is the bytes a query
// allocates when it finds the pool empty.
func TestRankMatchBufferBoundedBySC(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector; byte counts are noise")
	}
	const side = 256
	d := datagen.GTSLike(side, side, 1)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{128, 128})
	cfg.NumBins = 10
	cfg.SampleSize = 4096
	cfg.HierarchicalIndex = true
	st, err := Build(fs, pfs.NewClock(), "narrow/hier", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := grid.NewRegion([]int{0, 0}, []int{1, side}) // one row of the 128-row chunks
	if err != nil {
		t.Fatal(err)
	}
	// One match per point of the touched chunks, which is what the plan
	// alone would reserve.
	touched := int64(len(st.chunks.OverlappingChunks(sc))) * st.chunks.ChunkRegionByID(0).Elems() * 16
	// A window wide enough to hold an inner tree node: leaves are
	// answered from their bins, not from the vindex.
	lo, hi := datagen.Selectivity(v.Data, 0.7, 11, 1024)
	for name, req := range map[string]*query.Request{
		"region":       {SC: &sc, IndexOnly: true},
		"value+region": {VC: &binning.ValueConstraint{Min: lo, Max: hi}, SC: &sc, IndexOnly: true},
	} {
		res, err := st.Query(req, 1) // warm-up: lazily built state is not the query's
		if err != nil {
			t.Fatal(err)
		}
		if name == "value+region" && res.IndexNodesRead == 0 {
			t.Fatalf("%s: no index nodes read, the vindex path is not exercised", name)
		}
		matchesEqual(t, res.Matches, bruteForce(v.Data, d.Shape, req), name)
		const runs = 5
		var total uint64
		for i := 0; i < runs; i++ {
			runtime.GC()
			runtime.GC() // empty the scratch pool: the buffer is sized by this plan
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := st.Query(req, 1); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			total += after.TotalAlloc - before.TotalAlloc
		}
		// Measured: 74 kB (region) and 192 kB (value+region, most of it
		// node bitmaps) with the cap, 512 kB more without it.
		if perQuery := int64(total / runs); perQuery > touched*3/4 {
			t.Errorf("%s: %d bytes allocated per query; the SC holds %d points (%d bytes of matches), its chunks %d bytes",
				name, perQuery, sc.Elems(), sc.Elems()*16, touched)
		}
	}
}

// TestLargeAnswerBufferNotRetained: a rank buffer that grew past
// maxPooledMatches is dropped when the query ends; a smaller one stays
// with its scratch for the next query.
func TestLargeAnswerBufferNotRetained(t *testing.T) {
	const side = 272 // 73 984 points
	d := datagen.GTSLike(side, side, 1)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{34, 34})
	cfg.NumBins = 8
	cfg.SampleSize = 4096
	st, err := Build(fs, pfs.NewClock(), "big/answer", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	small, err := grid.NewRegion([]int{0, 0}, []int{34, 34})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  *query.Request
		kept bool
	}{
		{"70k matches", &query.Request{IndexOnly: true}, false},
		{"1k matches", &query.Request{SC: &small, IndexOnly: true}, true},
	} {
		qs := new(queryScratch)
		outs := qs.begin(1)
		p, err := st.planQuery(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.runRank(context.Background(), fs.NewClock(), p, p.tasks, &outs[0]); err != nil {
			t.Fatal(err)
		}
		n := len(gatherRanks(outs).Matches)
		qs.end()
		if kept := cap(qs.ranks[0].matches) > 0; kept != tc.kept {
			t.Errorf("%s (%d gathered): buffer of %d matches retained = %v, want %v",
				tc.name, n, cap(qs.ranks[0].matches), kept, tc.kept)
		}
		if (n > maxPooledMatches) == tc.kept {
			t.Errorf("%s: %d matches gathered, the case is on the wrong side of %d", tc.name, n, maxPooledMatches)
		}
	}
}

// yieldingCodec yields the processor inside every decode, so under
// GOMAXPROCS(1) other ranks and queries run while this one sits inside
// a cache flight.
type yieldingCodec struct{ compress.ByteCodec }

func (y yieldingCodec) DecodeBytes(data, dst []byte) ([]byte, error) {
	runtime.Gosched()
	return y.ByteCodec.DecodeBytes(data, dst)
}

// TestConcurrentColdQueriesOneCore: on one core, two cold queries over
// the same units lead and wait on each other's cache flights; they
// finish only because no flight waits on one that waits on it.
func TestConcurrentColdQueriesOneCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	data, shape := testData(t)
	fs := pfs.New(pfs.DefaultConfig())
	cfg := testConfig()
	cfg.ByteCodec = yieldingCodec{compress.NewZlib(compress.DefaultZlibLevel)}
	st, err := Build(fs, fs.NewClock(), "onecore/phi", shape, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := &query.Request{VC: &binning.ValueConstraint{Min: -1e30, Max: 1e30}}
	want := bruteForce(data, shape, req)
	var waits int64
	for round := 0; round < 5; round++ {
		c, err := cache.New(8 << 20)
		if err != nil {
			t.Fatal(err)
		}
		st.SetDecodeCache(c)
		results := make(chan *query.Result, 2)
		for q := 0; q < 2; q++ {
			go func() {
				res, err := st.Query(req, 2)
				if err != nil {
					t.Error(err)
				}
				results <- res
			}()
		}
		for q := 0; q < 2; q++ {
			select {
			case res := <-results:
				if res != nil {
					matchesEqual(t, res.Matches, want, "one-core cold query")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("two concurrent cold queries did not finish under GOMAXPROCS(1)")
			}
		}
		waits += c.Stats().Waits
	}
	t.Logf("%d flight waits over 5 rounds", waits)
}
