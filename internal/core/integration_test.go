package core

// Cross-system integration tests: MLOC and all three baselines must
// return identical match sets for identical requests — the correctness
// contract behind every timing comparison in the experiments.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/fastbit"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
	"mloc/internal/scidb"
	"mloc/internal/seqscan"
)

// allSystems builds every store kind over the same data.
type allSystems struct {
	data  []float64
	shape grid.Shape
	mloc  []*Store // COL, COL-VSM, ISO
	seq   *seqscan.Store
	fb    *fastbit.Store
	sci   *scidb.Store
}

func buildAll(t *testing.T) *allSystems {
	t.Helper()
	d := datagen.GTSLike(48, 40, 21)
	v, _ := d.Var("phi")
	sys := &allSystems{data: v.Data, shape: d.Shape}

	col := DefaultConfig([]int{16, 8})
	col.NumBins = 12
	col.SampleSize = 512
	vsm := col
	vsm.Order = OrderVSM
	iso := ISOConfig([]int{16, 8})
	iso.NumBins = 12
	iso.SampleSize = 512
	for _, cfg := range []Config{col, vsm, iso} {
		fs := pfs.New(pfs.DefaultConfig())
		st, err := Build(fs, fs.NewClock(), "it/mloc", d.Shape, v.Data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.mloc = append(sys.mloc, st)
	}
	{
		fs := pfs.New(pfs.DefaultConfig())
		st, err := seqscan.Build(fs, fs.NewClock(), "it/seq", d.Shape, v.Data)
		if err != nil {
			t.Fatal(err)
		}
		sys.seq = st
	}
	{
		fs := pfs.New(pfs.DefaultConfig())
		cfg := fastbit.DefaultConfig()
		cfg.NumBins = 64
		st, err := fastbit.Build(fs, fs.NewClock(), "it/fb", d.Shape, v.Data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.fb = st
	}
	{
		fs := pfs.New(pfs.DefaultConfig())
		st, err := scidb.Build(fs, fs.NewClock(), "it/sci", d.Shape, v.Data, scidb.DefaultConfig([]int{16, 8}))
		if err != nil {
			t.Fatal(err)
		}
		sys.sci = st
	}
	return sys
}

// runAll executes req on every system and checks all results agree
// with brute force.
func (sys *allSystems) runAll(t *testing.T, req *query.Request, ranks int, label string) {
	t.Helper()
	want := bruteForce(sys.data, sys.shape, req)
	check := func(name string, got []query.Match) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s/%s: %d matches, want %d", label, name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s/%s: match %d = %+v, want %+v", label, name, i, got[i], want[i])
			}
		}
	}
	for i, st := range sys.mloc {
		res, err := st.Query(req, ranks)
		if err != nil {
			t.Fatalf("%s/mloc[%d]: %v", label, i, err)
		}
		check("mloc", res.Matches)
	}
	res, err := sys.seq.Query(req, ranks)
	if err != nil {
		t.Fatalf("%s/seq: %v", label, err)
	}
	check("seq", res.Matches)
	res, err = sys.fb.Query(req, ranks)
	if err != nil {
		t.Fatalf("%s/fastbit: %v", label, err)
	}
	check("fastbit", res.Matches)
	res, err = sys.sci.Query(req, ranks)
	if err != nil {
		t.Fatalf("%s/scidb: %v", label, err)
	}
	check("scidb", res.Matches)
}

func TestAllSystemsAgreeOnRegionQueries(t *testing.T) {
	sys := buildAll(t)
	for _, sel := range []float64{0.01, 0.1, 0.5} {
		lo, hi := datagen.Selectivity(sys.data, sel, int64(sel*1000)+7, 1024)
		vc := binning.ValueConstraint{Min: lo, Max: hi}
		sys.runAll(t, &query.Request{VC: &vc}, 4, "region")
		sys.runAll(t, &query.Request{VC: &vc, IndexOnly: true}, 4, "region-index-only")
	}
}

func TestAllSystemsAgreeOnValueQueries(t *testing.T) {
	sys := buildAll(t)
	regions := [][2][]int{
		{{0, 0}, {48, 40}},   // full domain
		{{10, 10}, {20, 20}}, // interior box
		{{40, 30}, {48, 40}}, // corner including edge chunks
		{{5, 0}, {6, 40}},    // thin slab
	}
	for _, r := range regions {
		sc, err := grid.NewRegion(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		sys.runAll(t, &query.Request{SC: &sc}, 3, "value")
	}
}

func TestAllSystemsAgreeOnCombinedQueries(t *testing.T) {
	sys := buildAll(t)
	lo, hi := datagen.Selectivity(sys.data, 0.3, 31, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	sc, _ := grid.NewRegion([]int{8, 4}, []int{36, 32})
	sys.runAll(t, &query.Request{VC: &vc, SC: &sc}, 5, "combined")
}

// TestEdgeBinClampedValuesFiltered is a regression test: bin boundaries
// are estimated from a sample, so data values below the first bound (or
// above the last) exist and BinOf clamps them into the edge bins. A
// constraint that covered bin 0's nominal interval used to classify it
// aligned and return those clamped values unfiltered (found by
// TestAllSystemsAgreeQuick with seed -1800124551037682200); builders
// now widen the outer bounds to the true data extremes.
func TestEdgeBinClampedValuesFiltered(t *testing.T) {
	sys := buildAll(t)
	for _, st := range sys.mloc {
		b := st.Scheme().Bounds()
		lo, hi := b[0], b[len(b)-1]
		for i, v := range sys.data {
			if v < lo || v > hi {
				t.Fatalf("value %v at %d outside scheme bounds [%v, %v]", v, i, lo, hi)
			}
		}
	}
	// The quick-check failure's constraint: Min sits above several data
	// values that the sampled bin-0 lower bound used to exclude.
	vc := binning.ValueConstraint{Min: 8.044075841799517, Max: 9.758988479018614}
	sys.runAll(t, &query.Request{VC: &vc}, 3, "edge-bin")
	// And a constraint entirely below the sampled first bound must
	// still find the clamped values instead of pruning every bin.
	min, max := sys.data[0], sys.data[0]
	for _, v := range sys.data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	sys.runAll(t, &query.Request{VC: &binning.ValueConstraint{Min: min, Max: min + 0.05}}, 2, "bottom-edge")
	sys.runAll(t, &query.Request{VC: &binning.ValueConstraint{Min: max - 0.05, Max: max}}, 2, "top-edge")
}

func TestAllSystemsAgreeQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick cross-system property test")
	}
	sys := buildAll(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		req := &query.Request{}
		if r.Intn(2) == 0 {
			lo, hi := datagen.Selectivity(sys.data, 0.02+r.Float64()*0.4, seed, 512)
			req.VC = &binning.ValueConstraint{Min: lo, Max: hi}
		}
		if r.Intn(2) == 0 || req.VC == nil {
			x0, y0 := r.Intn(40), r.Intn(32)
			sc, err := grid.NewRegion([]int{x0, y0}, []int{x0 + 1 + r.Intn(48-x0-1), y0 + 1 + r.Intn(40-y0-1)})
			if err != nil {
				return false
			}
			req.SC = &sc
		}
		want := bruteForce(sys.data, sys.shape, req)
		for _, st := range sys.mloc[:1] {
			res, err := st.Query(req, 1+r.Intn(6))
			if err != nil || len(res.Matches) != len(want) {
				return false
			}
			for i := range want {
				if res.Matches[i] != want[i] {
					return false
				}
			}
		}
		res, err := sys.seq.Query(req, 2)
		if err != nil || len(res.Matches) != len(want) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicVirtualTime(t *testing.T) {
	// The same query on a freshly reset store must report identical
	// virtual I/O time every run — the experiment harness's core
	// assumption (CPU components are measured and may vary; I/O is the
	// simulated part and must not).
	sys := buildAll(t)
	st := sys.mloc[0]
	lo, hi := datagen.Selectivity(sys.data, 0.05, 41, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	req := &query.Request{VC: &vc, IndexOnly: true}
	var first float64
	for i := 0; i < 5; i++ {
		st.fs.ResetStats()
		res, err := st.Query(req, 4)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Time.IO
			continue
		}
		if res.Time.IO != first {
			t.Fatalf("run %d: IO %v != first run %v (virtual time not deterministic)", i, res.Time.IO, first)
		}
	}
}

// TestVirtualTimeRepeatsUnderLoad runs TestDeterministicVirtualTime's
// query and a 64² sub-volume value query 20 times each while a spinning
// goroutine occupies every core: every component of the reported time —
// I/O, decompress and reconstruct — must repeat exactly, because query
// compute is charged from the rate table, not timed, and the split that
// decides each rank's work is a function of the plan.
func TestVirtualTimeRepeatsUnderLoad(t *testing.T) {
	sys := buildAll(t)
	lo, hi := datagen.Selectivity(sys.data, 0.05, 41, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}

	d := datagen.GTSLike(128, 128, 9)
	v, _ := d.Var("phi")
	cfg := DefaultConfig([]int{32, 32})
	cfg.NumBins = 40
	cfg.SampleSize = 2048
	fs := pfs.New(pfs.DefaultConfig())
	sub, err := Build(fs, fs.NewClock(), "load/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := grid.Region{Lo: []int{40, 30}, Hi: []int{104, 94}}

	stop := make(chan struct{})
	var spinning sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		spinning.Add(1)
		go func() {
			defer spinning.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	defer func() {
		close(stop)
		spinning.Wait()
	}()

	for _, c := range []struct {
		name string
		st   *Store
		req  *query.Request
	}{
		{"region", sys.mloc[0], &query.Request{VC: &vc, IndexOnly: true}},
		{"subvol", sub, &query.Request{SC: &sc}},
	} {
		var first query.Components
		for i := 0; i < 20; i++ {
			res, err := c.st.Query(c.req, 4)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = res.Time
				continue
			}
			if res.Time != first {
				t.Fatalf("%s run %d: time %+v != first run %+v", c.name, i, res.Time, first)
			}
		}
	}
}
