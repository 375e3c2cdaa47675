package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/cache"
	"mloc/internal/compress"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// concurrentRequests is the mixed workload the stress test replays from
// many goroutines: region, value, combined, and reduced-precision
// accesses (the paper's heterogeneous access patterns).
func concurrentRequests(shape grid.Shape) []*query.Request {
	half := make([]int, shape.Dims())
	for d := range half {
		half[d] = shape[d] / 2
	}
	lo := make([]int, shape.Dims())
	region, _ := grid.NewRegion(lo, half)
	return []*query.Request{
		{SC: &region, IndexOnly: true},
		{VC: &binning.ValueConstraint{Min: 0.2, Max: 0.8}},
		{VC: &binning.ValueConstraint{Min: 0.1, Max: 0.6}, SC: &region},
		{VC: &binning.ValueConstraint{Min: -1e30, Max: 1e30}, PLoDLevel: 4},
	}
}

// TestConcurrentQueriesRace runs mixed queries plus position fetches
// from parallel goroutines against one Store sharing one decode cache.
// Run under -race this is the store's concurrency contract; results are
// also checked against serial baselines.
func TestConcurrentQueriesRace(t *testing.T) {
	st, data, shape := buildTestStore(t, testConfig())
	c, err := cache.New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	st.SetDecodeCache(c)

	reqs := concurrentRequests(shape)
	baselines := make([][]query.Match, len(reqs))
	for i, req := range reqs {
		res, err := st.Query(req, 1)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		baselines[i] = res.Matches
	}

	// A position-fetch baseline: values of the region's points.
	positions := bitmap.New(shape.Elems())
	for _, m := range baselines[0] {
		positions.Set(m.Index)
	}
	fetchBase, err := st.FetchAtContext(context.Background(), positions, 1)
	if err != nil {
		t.Fatalf("baseline fetch: %v", err)
	}
	for _, m := range fetchBase.Matches {
		if m.Value != data[m.Index] {
			t.Fatalf("baseline fetch value at %d = %v, want %v", m.Index, m.Value, data[m.Index])
		}
	}

	const goroutines = 8
	const iters = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(reqs)
				ranks := 1 + (g+it)%4
				res, err := st.Query(reqs[i], ranks)
				if err != nil {
					t.Errorf("goroutine %d iter %d query %d: %v", g, it, i, err)
					return
				}
				if len(res.Matches) != len(baselines[i]) {
					t.Errorf("goroutine %d query %d: %d matches, want %d",
						g, i, len(res.Matches), len(baselines[i]))
					return
				}
				for j := range baselines[i] {
					if res.Matches[j] != baselines[i][j] {
						t.Errorf("goroutine %d query %d: match %d = %+v, want %+v",
							g, i, j, res.Matches[j], baselines[i][j])
						return
					}
				}
				if it%2 == 1 {
					fres, err := st.FetchAtContext(context.Background(), positions, ranks)
					if err != nil {
						t.Errorf("goroutine %d fetch: %v", g, err)
						return
					}
					if len(fres.Matches) != len(fetchBase.Matches) {
						t.Errorf("goroutine %d fetch: %d matches, want %d",
							g, len(fres.Matches), len(fetchBase.Matches))
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if c.Stats().Hits == 0 {
		t.Errorf("shared cache recorded no hits across %d repeated queries", goroutines*iters)
	}
}

// TestQueryContextCancellation cancels a context from the bin-boundary
// test seam and checks the engine stops at that boundary instead of
// scanning the remaining bins.
func TestQueryContextCancellation(t *testing.T) {
	st, _, _ := buildTestStore(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var binsSeen atomic.Int64
	st.hookBeforeBin = func(bin int) {
		if binsSeen.Add(1) == 2 {
			cancel()
		}
	}
	defer func() { st.hookBeforeBin = nil }()

	req := &query.Request{VC: &binning.ValueConstraint{Min: -1e30, Max: 1e30}}
	_, err := st.QueryContext(ctx, req, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext after mid-query cancel = %v, want context.Canceled", err)
	}
	// The rank saw bin 2's boundary (where it canceled) and must not
	// have progressed past bin 3's check.
	if n := binsSeen.Load(); n > 3 {
		t.Errorf("engine visited %d bin boundaries after cancellation, want prompt stop", n)
	}
}

// TestQueryContextPreCanceled checks an already-expired context fails
// before any PFS work.
func TestQueryContextPreCanceled(t *testing.T) {
	st, _, _ := buildTestStore(t, testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := &query.Request{VC: &binning.ValueConstraint{Min: 0, Max: 1}}
	if _, err := st.QueryContext(ctx, req, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext with pre-canceled ctx = %v, want context.Canceled", err)
	}
}

// TestBuildContextPreCanceled checks that a build under an expired
// context stops at the commit loop's first poll: the error wraps
// context.Canceled and names bin 0, and nothing — no bin subfile, no
// vindex, no meta — lands under the prefix.
func TestBuildContextPreCanceled(t *testing.T) {
	data, shape := testData(t)
	fs := pfs.New(pfs.DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildContext(ctx, fs, fs.NewClock(), "canceled/phi", shape, data, hierTestConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildContext with pre-canceled ctx = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "bin 0") {
		t.Errorf("error %q does not name bin 0", err)
	}
	if files := fs.List("canceled/"); len(files) != 0 {
		t.Errorf("canceled build left %d files under the prefix: %v", len(files), files)
	}
}

// TestFetchAtContextCancellation mirrors the query cancellation test for
// the multi-variable position-fetch path.
func TestFetchAtContextCancellation(t *testing.T) {
	st, _, shape := buildTestStore(t, testConfig())
	positions := bitmap.New(shape.Elems())
	for i := int64(0); i < shape.Elems(); i += 7 {
		positions.Set(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var binsSeen atomic.Int64
	st.hookBeforeBin = func(bin int) {
		if binsSeen.Add(1) == 2 {
			cancel()
		}
	}
	defer func() { st.hookBeforeBin = nil }()
	if _, err := st.FetchAtContext(ctx, positions, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("FetchAtContext after mid-fetch cancel = %v, want context.Canceled", err)
	}
}

// countingCodec wraps a ByteCodec and counts DecodeBytes calls; the
// decode-cache test uses it to prove hits skip decompression entirely.
type countingCodec struct {
	inner   compress.ByteCodec
	decodes *atomic.Int64
}

func (c countingCodec) Name() string { return c.inner.Name() }
func (c countingCodec) EncodeBytes(src []byte) ([]byte, error) {
	return c.inner.EncodeBytes(src)
}
func (c countingCodec) DecodeBytes(data, dst []byte) ([]byte, error) {
	c.decodes.Add(1)
	return c.inner.DecodeBytes(data, dst)
}

// TestDecodeCachePreventsRedecompression runs the same query twice with
// a cache attached and asserts the second run performs zero codec
// decodes and zero data-plane I/O beyond the first.
func TestDecodeCachePreventsRedecompression(t *testing.T) {
	data, shape := testData(t)
	fs := pfs.New(pfs.DefaultConfig())
	var decodes atomic.Int64
	cfg := testConfig()
	cfg.ByteCodec = countingCodec{inner: compress.NewZlib(compress.DefaultZlibLevel), decodes: &decodes}
	st, err := Build(fs, pfs.NewClock(), "mloc/phi", shape, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	st.SetDecodeCache(c)

	decodes.Store(0)
	req := &query.Request{VC: &binning.ValueConstraint{Min: -1e30, Max: 1e30}}
	res1, err := st.Query(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := decodes.Load()
	if afterFirst == 0 {
		t.Fatalf("first query performed no decodes; counting codec not in the path")
	}

	res2, err := st.Query(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := decodes.Load(); n != afterFirst {
		t.Errorf("second identical query decoded %d more units; cache did not serve it", n-afterFirst)
	}
	if res2.CacheHits == 0 {
		t.Errorf("second query reported zero cache hits")
	}
	if res2.Time.Decompress != 0 {
		t.Errorf("second query charged %v decompress time, want 0", res2.Time.Decompress)
	}
	matchesEqual(t, res2.Matches, res1.Matches, "cached query")

	// A fetch over the same units must also be served from cache.
	positions := bitmap.New(shape.Elems())
	for i := int64(0); i < shape.Elems(); i += 5 {
		positions.Set(i)
	}
	fres, err := st.FetchAtContext(context.Background(), positions, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := decodes.Load(); n != afterFirst {
		t.Errorf("cached fetch decoded %d more units", n-afterFirst)
	}
	if fres.CacheHits == 0 {
		t.Errorf("fetch reported zero cache hits")
	}
	for _, m := range fres.Matches {
		if m.Value != data[m.Index] {
			t.Fatalf("cached fetch value at %d = %v, want %v", m.Index, m.Value, data[m.Index])
		}
	}
}
