package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// storeFiles snapshots every file under prefix as path → bytes, read
// through Peek so no virtual time is charged.
func storeFiles(t *testing.T, fs *pfs.Sim, prefix string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, path := range fs.List(prefix) {
		size, err := fs.Size(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := fs.Peek(path, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		out[path] = append([]byte(nil), data...)
	}
	return out
}

// parallelBuildConfigs is the determinism-test matrix: both storage
// modes, every float codec, and both level orders.
func parallelBuildConfigs() map[string]Config {
	planesVSM := DefaultConfig([]int{8, 8})
	planesVSM.Order = OrderVSM
	return map[string]Config{
		"planes-vms": DefaultConfig([]int{8, 8}),
		"planes-vsm": planesVSM,
		"iso-vms":    ISOConfig([]int{8, 8}),
		"isa-vms":    ISAConfig([]int{8, 8}),
	}
}

// TestBuildWorkersDeterministic asserts the tentpole guarantee: for
// every mode/codec/order combination, BuildWorkers=N produces subfiles,
// index files, and metadata byte-identical to BuildWorkers=1, and
// queries on the resulting stores return identical results.
func TestBuildWorkersDeterministic(t *testing.T) {
	data, shape := testData(t)
	for name, base := range parallelBuildConfigs() {
		base.NumBins = 10
		base.SampleSize = 512
		t.Run(name, func(t *testing.T) {
			ref := base
			ref.BuildWorkers = 1
			fsRef := pfs.New(pfs.DefaultConfig())
			stRef, err := Build(fsRef, fsRef.NewClock(), "det/phi", shape, data, ref)
			if err != nil {
				t.Fatal(err)
			}
			want := storeFiles(t, fsRef, "det/phi")

			reqs := []*query.Request{
				{VC: &binning.ValueConstraint{Min: 0.1, Max: 0.7}},
				{SC: regionOf(t, shape), PLoDLevel: 2},
			}
			if base.Mode == ModeFloats {
				reqs[1].PLoDLevel = 0 // floats mode serves full precision only
			}
			var wantRes [][]query.Match
			for _, req := range reqs {
				res, err := stRef.Query(req, 2)
				if err != nil {
					t.Fatal(err)
				}
				wantRes = append(wantRes, res.Matches)
			}

			for _, workers := range []int{2, 3, 4, runtime.GOMAXPROCS(0) + 2} {
				cfg := base
				cfg.BuildWorkers = workers
				fsN := pfs.New(pfs.DefaultConfig())
				stN, err := Build(fsN, fsN.NewClock(), "det/phi", shape, data, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := storeFiles(t, fsN, "det/phi")
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d files, want %d", workers, len(got), len(want))
				}
				for path, wantBytes := range want {
					gotBytes, ok := got[path]
					if !ok {
						t.Fatalf("workers=%d: missing file %s", workers, path)
					}
					if string(gotBytes) != string(wantBytes) {
						t.Errorf("workers=%d: %s differs from serial build (%d vs %d bytes)",
							workers, path, len(gotBytes), len(wantBytes))
					}
				}
				for i, req := range reqs {
					res, err := stN.Query(req, 2)
					if err != nil {
						t.Fatalf("workers=%d query %d: %v", workers, i, err)
					}
					matchesEqual(t, res.Matches, wantRes[i], fmt.Sprintf("workers=%d query %d", workers, i))
				}
			}
		})
	}
}

func regionOf(t *testing.T, shape grid.Shape) *grid.Region {
	t.Helper()
	lo := make([]int, shape.Dims())
	hi := make([]int, shape.Dims())
	for d := range hi {
		hi[d] = shape[d] * 3 / 4
	}
	r, err := grid.NewRegion(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return &r
}

// TestBuildWorkersValidation checks the config knob's edges: negative
// counts are rejected, zero runs GOMAXPROCS workers charged as
// modelledBuildWorkers, and neither width exceeds the items.
func TestBuildWorkersValidation(t *testing.T) {
	data, shape := testData(t)
	cfg := testConfig()
	cfg.BuildWorkers = -1
	fs := pfs.New(pfs.DefaultConfig())
	if _, err := Build(fs, pfs.NewClock(), "x/phi", shape, data, cfg); err == nil {
		t.Fatal("BuildWorkers=-1 accepted")
	}
	cfg.BuildWorkers = 0
	if pool, charged := cfg.buildWorkers(1 << 20); pool != runtime.GOMAXPROCS(0) || charged != modelledBuildWorkers {
		t.Fatalf("buildWorkers with 0 = (%d, %d), want GOMAXPROCS %d charged as %d",
			pool, charged, runtime.GOMAXPROCS(0), modelledBuildWorkers)
	}
	cfg.BuildWorkers = 8
	if pool, charged := cfg.buildWorkers(3); pool != 3 || charged != 3 {
		t.Fatalf("buildWorkers(3) with 8 = (%d, %d), want (3, 3)", pool, charged)
	}
}

// TestConcurrentMultiVarBuildRace is the multivar setup path under the
// race detector: several variables of one dataset built concurrently
// into a single shared pfs.Sim, each build itself running parallel
// workers, then cross-checked against serially built stores via a
// multi-variable query.
func TestConcurrentMultiVarBuildRace(t *testing.T) {
	d := datagen.S3DLike(12, 7)
	cfg := DefaultConfig([]int{6, 6, 6})
	cfg.NumBins = 8
	cfg.SampleSize = 512

	// Reference: serial builds on a private Sim.
	refFS := pfs.New(pfs.DefaultConfig())
	refStores := make(map[string]*Store, len(d.Vars))
	for _, v := range d.Vars {
		st, err := Build(refFS, refFS.NewClock(), "mv/"+v.Name, d.Shape, v.Data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		refStores[v.Name] = st
	}

	// Concurrent: all variables at once, sharing one Sim, each build
	// fanning out its own workers.
	fs := pfs.New(pfs.DefaultConfig())
	var mu sync.Mutex
	stores := make(map[string]*Store, len(d.Vars))
	var wg sync.WaitGroup
	errs := make(chan error, len(d.Vars))
	for _, v := range d.Vars {
		wg.Add(1)
		go func(name string, data []float64) {
			defer wg.Done()
			bcfg := cfg
			bcfg.BuildWorkers = 2
			st, err := Build(fs, fs.NewClock(), "mv/"+name, d.Shape, data, bcfg)
			if err != nil {
				errs <- fmt.Errorf("build %s: %w", name, err)
				return
			}
			mu.Lock()
			stores[name] = st
			mu.Unlock()
		}(v.Name, v.Data)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Byte-identical stores regardless of build concurrency.
	for _, v := range d.Vars {
		want := storeFiles(t, refFS, "mv/"+v.Name)
		got := storeFiles(t, fs, "mv/"+v.Name)
		for path, wantBytes := range want {
			if string(got[path]) != string(wantBytes) {
				t.Errorf("concurrent build: %s differs from serial build", path)
			}
		}
	}

	// The multivar access pattern works on the concurrently built Sim
	// and agrees with the reference stores.
	req := MultiVarRequest{
		Select:    query.Request{VC: &binning.ValueConstraint{Min: 0.5, Max: 1e30}},
		FetchVars: []string{"vu"},
	}
	got, err := MultiVarQuery(stores, "temp", req, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MultiVarQuery(refStores, "temp", req, 2)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, got.Values["vu"], want.Values["vu"], "concurrent multivar fetch")
}
