package experiments

import (
	"fmt"
	"sync"

	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/fastbit"
	"mloc/internal/pfs"
	"mloc/internal/query"
	"mloc/internal/scidb"
	"mloc/internal/seqscan"
)

// The fixture: every experiment reads its datasets and its
// default-configuration stores from one process-wide memo, so a dataset
// is generated and a store built once per process however many
// experiments use it — in cmd/benchtables and in the claim tests alike.
// Sharing moves no cell but the measured-CPU ones, which vary run to run
// anyway: each store sits alone on its own simulated PFS, every query
// runs on fresh clocks with the stats reset, and no decode cache is
// attached. Fixture stores are read-only; an experiment that varies the
// configuration builds a private store.

// workloadKey names a dataset: its kind ("gts" or "s3d"), its scale
// (the 512 GB class when large, else the 8 GB class) and its seed.
type workloadKey struct {
	kind  string
	large bool
	seed  int64
}

// systemKey names a fixture store: a system on a workload. The system
// name fixes the configuration (mlocConfig for the MLOC variants, each
// comparator's default).
type systemKey struct {
	workload workloadKey
	system   string
}

var (
	workloads sync.Map // workloadKey → func() *workload
	systems   sync.Map // systemKey → func() (*system, error)
)

// fixtureWorkload returns the workload for key, generating it on first
// use.
func fixtureWorkload(key workloadKey, generate func() *workload) *workload {
	f, _ := workloads.LoadOrStore(key, sync.OnceValue(func() *workload {
		w := generate()
		w.key = key
		return w
	}))
	return f.(func() *workload)()
}

// fixtureSystem returns the named system on w, building it on first use.
func fixtureSystem(w *workload, name string) (*system, error) {
	f, _ := systems.LoadOrStore(systemKey{w.key, name}, sync.OnceValues(func() (*system, error) {
		return buildSystem(w, name)
	}))
	return f.(func() (*system, error))()
}

// Comparator names; the MLOC systems are named by their mlocVariant.
const (
	sysSeqScan = "Seq. Scan"
	sysFastBit = "FastBit"
	sysSciDB   = "SciDB"
)

// allSystems is the 8 GB tables' line-up; the 512 GB ones compare MLOC
// against seq-scan alone ("as the other approaches already show poor
// performances on smaller datasets").
var (
	allSystems = []string{string(VariantCOL), string(VariantISO), string(VariantISA), sysSeqScan, sysFastBit, sysSciDB}
	mlocAndSeq = allSystems[:4]
)

// system is one built store with its PFS and on-disk footprint.
type system struct {
	name string
	sys  queryable
	fs   *pfs.Sim
	// ranks, when non-zero, overrides the experiment's rank count: the
	// paper's sequential scan is a single process.
	ranks int
	data  int64
	index int64 // -1: the system keeps no index
}

// buildSystem builds the named system on a fresh scale-aware PFS.
func buildSystem(w *workload, name string) (*system, error) {
	shape, data := w.ds.Shape, w.data()
	switch name {
	case sysSeqScan:
		fs := newScaledFS(w)
		st, err := seqscan.Build(fs, fs.NewClock(), "seq", shape, data)
		if err != nil {
			return nil, err
		}
		size, err := st.StorageBytes()
		if err != nil {
			return nil, err
		}
		return &system{name: name, sys: st, fs: fs, ranks: 1, data: size, index: -1}, nil
	case sysFastBit:
		fs := newScaledFS(w)
		st, err := fastbit.Build(fs, fs.NewClock(), "fb", shape, data, fastbit.DefaultConfig())
		if err != nil {
			return nil, err
		}
		return &system{name: name, sys: st, fs: fs, data: st.DataBytes(), index: st.IndexBytes()}, nil
	case sysSciDB:
		fs := newScaledFS(w)
		st, err := scidb.Build(fs, fs.NewClock(), "sci", shape, data, scidb.DefaultConfig(w.chunk))
		if err != nil {
			return nil, err
		}
		return &system{name: name, sys: st, fs: fs, data: st.StorageBytes(), index: -1}, nil
	default:
		st, fs, err := buildStore(w, mlocConfig(mlocVariant(name), w.chunk))
		if err != nil {
			return nil, err
		}
		return &system{name: name, sys: st, fs: fs, data: st.DataBytes(), index: st.IndexBytes()}, nil
	}
}

// queryTime is avgQueryTime on s at p's query count and rank count.
func (s *system) queryTime(gen func(i int) *query.Request, p Params) (float64, query.Components, error) {
	ranks := p.Ranks
	if s.ranks != 0 {
		ranks = s.ranks
	}
	return avgQueryTime(s.sys, s.fs, gen, p.Queries, ranks)
}

// mlocStore returns the fixture's store for MLOC variant v on w.
func mlocStore(w *workload, v mlocVariant) (*core.Store, *pfs.Sim, error) {
	s, err := fixtureSystem(w, string(v))
	if err != nil {
		return nil, nil, err
	}
	return s.sys.(*core.Store), s.fs, nil
}

// colStore returns a store with MLOC-COL's configuration as edit
// changes it: with a nil edit the fixture's shared store, otherwise a
// private one.
func colStore(w *workload, edit func(*core.Config)) (*core.Store, *pfs.Sim, error) {
	if edit == nil {
		return mlocStore(w, VariantCOL)
	}
	cfg := core.DefaultConfig(w.chunk)
	edit(&cfg)
	return buildStore(w, cfg)
}

// buildStore builds a private MLOC store on a fresh scale-aware PFS.
func buildStore(w *workload, cfg core.Config) (*core.Store, *pfs.Sim, error) {
	fs := newScaledFS(w)
	st, err := core.Build(fs, pfs.NewClock(), "mloc", w.ds.Shape, w.data(), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: build on %s: %w", w.name, err)
	}
	return st, fs, nil
}

// gtsWorkload returns the GTS-like workload. Small mirrors the 8 GB
// dataset (32768², chunk 2048² → 16×16 chunk grid) at 1024² with chunk
// 64²; large mirrors the 512 GB dataset (262144², 128×128 chunk grid)
// at 2048² with chunk 64² (32×32 grid).
func gtsWorkload(large bool, seed int64) *workload {
	return fixtureWorkload(workloadKey{"gts", large, seed}, func() *workload {
		n, paper := 1024, 8e9
		if large {
			n, paper = 2048, 512e9
		}
		return &workload{
			name:   "GTS",
			ds:     datagen.GTSLike(n, n, seed),
			varr:   "phi",
			chunk:  []int{64, 64},
			factor: paper / float64(n*n*8),
		}
	})
}

// s3dWorkload returns the S3D-like workload (paper: 1024³ chunk 128³
// for 8 GB; 4096³ for 512 GB). Small: 128³ chunk 16³ (8³ chunk grid);
// large: 192³ chunk 24³.
func s3dWorkload(large bool, seed int64) *workload {
	return fixtureWorkload(workloadKey{"s3d", large, seed}, func() *workload {
		n, c, paper := 128, 16, 8e9
		if large {
			n, c, paper = 192, 24, 512e9
		}
		return &workload{
			name:   "S3D",
			ds:     datagen.S3DLike(n, seed),
			varr:   "temp",
			chunk:  []int{c, c, c},
			factor: paper / float64(int64(n)*int64(n)*int64(n)*8),
		}
	})
}
