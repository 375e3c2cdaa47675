// Package seqscan implements the paper's naive comparator: the
// variable stored as one raw row-major file of little-endian float64.
// Spatially-constrained (value) queries compute file offsets directly
// from the multi-dimensional bounds and read only the touched rows;
// value-constrained (region) queries must scan the entire file.
package seqscan

import (
	"encoding/binary"
	"fmt"
	"math"

	"mloc/internal/grid"
	"mloc/internal/mpi"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// Store is a sequential-scan store bound to one variable on the PFS.
type Store struct {
	fs    *pfs.Sim
	path  string
	shape grid.Shape
	// scanChunk is the read granularity for full scans.
	scanChunk int64
}

// Build writes the variable to the PFS and returns the store. The
// write time is charged to clk.
func Build(fs *pfs.Sim, clk *pfs.Clock, path string, shape grid.Shape, data []float64) (*Store, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if int64(len(data)) != shape.Elems() {
		return nil, fmt.Errorf("seqscan: %d values for shape %v", len(data), shape)
	}
	buf := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	if err := fs.WriteFile(clk, path, buf); err != nil {
		return nil, err
	}
	return &Store{fs: fs, path: path, shape: shape, scanChunk: 4 << 20}, nil
}

// StorageBytes returns the on-PFS footprint (Table I's "data size";
// sequential scan has no index).
func (s *Store) StorageBytes() (int64, error) { return s.fs.Size(s.path) }

// Query executes a request with the given number of parallel ranks.
//
// With only an SC, the region's contiguous innermost-dimension runs are
// read directly by offset. Any VC forces a full scan, because raw
// row-major layout gives no value index — the paper's Table II/IV
// behavior.
func (s *Store) Query(req *query.Request, ranks int) (*query.Result, error) {
	if err := req.Validate(s.shape); err != nil {
		return nil, err
	}
	if req.Rows != nil {
		return nil, fmt.Errorf("seqscan: row ranges are not supported")
	}
	if ranks < 1 {
		return nil, fmt.Errorf("seqscan: ranks %d < 1", ranks)
	}
	if req.VC == nil && req.SC != nil {
		return s.regionRead(req, ranks)
	}
	return s.fullScan(req, ranks)
}

// rankOut collects one rank's contribution.
type rankOut struct {
	matches []query.Match
	time    query.Components
	bytes   int64
}

// regionRead serves SC-only queries by direct offset reads of the
// region's row runs, split across ranks.
//
// Geometry correction: the number of row runs for a fixed-selectivity
// region grows with the LINEAR grid side, which a byte-scaled
// simulation under-represents by λ = ByteScale^(1/dims) per outer
// dimension — a 0.1% region of the paper's 32768² grid has ~1036 rows
// where the scaled 1024² grid has ~32. Transfer bytes project correctly
// through ByteScale, but each scaled run stands for λ^(dims-1)
// full-scale runs' worth of per-run overhead. The missing
// (λ^(dims-1) − 1) runs are charged min(seek latency, gap read-through
// time) each: a reader seeks over large inter-row gaps but streams
// through small ones. Without this, seek-bound row-run reads would look
// artificially cheap at scale.
func (s *Store) regionRead(req *query.Request, ranks int) (*query.Result, error) {
	region := req.SC.Clip(s.shape)
	runs := rowRuns(s.shape, region)
	cfg := s.fs.Config()
	extraRunCost := 0.0
	if cfg.ByteScale > 1 && s.shape.Dims() >= 2 && !region.Empty() {
		dims := s.shape.Dims()
		lambda := math.Pow(cfg.ByteScale, 1/float64(dims))
		runsPerScaled := math.Pow(lambda, float64(dims-1))
		// Per full-scale run the reader either seeks over the gap to the
		// next run or reads through it, whichever is cheaper — small
		// inter-row gaps (3-D grids) are read through at streaming rate,
		// large ones (2-D grids) cost a seek.
		innerWidth := float64(region.Hi[dims-1] - region.Lo[dims-1])
		gapPaperBytes := (float64(s.shape[dims-1]) - innerWidth) * lambda * 8
		perRun := gapPaperBytes / cfg.ReadBW
		if perRun > cfg.SeekLatency {
			perRun = cfg.SeekLatency
		}
		extraRunCost = (runsPerScaled - 1) * perRun
	}
	outs := make([]rankOut, ranks)
	clks := s.fs.NewClocks(ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		clk := clks[c.Rank()]
		if err := s.fs.Open(clk, s.path); err != nil {
			return err
		}
		ioStart := clk.Now()
		out := &outs[c.Rank()]
		out.time.IO += clk.Now() - ioStart
		for i := c.Rank(); i < len(runs); i += c.Size() {
			run := runs[i]
			t0 := clk.Now()
			raw, err := s.fs.ReadAt(clk, s.path, run.start*8, run.count*8)
			if err != nil {
				return err
			}
			clk.AdvanceBy(extraRunCost)
			out.time.IO += clk.Now() - t0
			out.bytes += run.count * 8
			out.time.Reconstruct += clk.MeasureCPU(func() {
				for j := int64(0); j < run.count; j++ {
					v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
					out.matches = append(out.matches, query.Match{Index: run.start + j, Value: v})
				}
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return combine(outs), nil
}

// fullScan reads the whole file (rank-partitioned) and filters.
func (s *Store) fullScan(req *query.Request, ranks int) (*query.Result, error) {
	total := s.shape.Elems()
	per := (total + int64(ranks) - 1) / int64(ranks)
	outs := make([]rankOut, ranks)
	clks := s.fs.NewClocks(ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		clk := clks[c.Rank()]
		if err := s.fs.Open(clk, s.path); err != nil {
			return err
		}
		out := &outs[c.Rank()]
		lo := per * int64(c.Rank())
		hi := lo + per
		if hi > total {
			hi = total
		}
		coords := make([]int, s.shape.Dims())
		for pos := lo; pos < hi; {
			n := s.scanChunk / 8
			if pos+n > hi {
				n = hi - pos
			}
			t0 := clk.Now()
			raw, err := s.fs.ReadAt(clk, s.path, pos*8, n*8)
			if err != nil {
				return err
			}
			out.time.IO += clk.Now() - t0
			out.bytes += n * 8
			out.time.Reconstruct += clk.MeasureCPU(func() {
				for j := int64(0); j < n; j++ {
					v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
					if req.VC != nil && !req.VC.Contains(v) {
						continue
					}
					idx := pos + j
					if req.SC != nil {
						coords = s.shape.Coords(idx, coords[:0])
						if !req.SC.Contains(coords) {
							continue
						}
					}
					m := query.Match{Index: idx}
					if !req.IndexOnly {
						m.Value = v
					}
					out.matches = append(out.matches, m)
				}
			})
			pos += n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return combine(outs), nil
}

// combine merges per-rank outputs: matches concatenate and sort; the
// reported time is the slowest rank's breakdown; bytes sum.
func combine(outs []rankOut) *query.Result {
	res := &query.Result{}
	var slowest float64
	for i := range outs {
		res.Matches = append(res.Matches, outs[i].matches...)
		res.BytesRead += outs[i].bytes
		if t := outs[i].time.Total(); t >= slowest {
			slowest = t
			res.Time = outs[i].time
		}
	}
	res.Sort()
	return res
}

// run is one contiguous element range in the flat file.
type run struct {
	start, count int64
}

// rowRuns enumerates the contiguous innermost-dimension runs covering
// the region in row-major element offsets.
func rowRuns(shape grid.Shape, region grid.Region) []run {
	if region.Empty() {
		return nil
	}
	dims := shape.Dims()
	inner := dims - 1
	runLen := int64(region.Hi[inner] - region.Lo[inner])
	// Iterate over all outer-coordinate combinations.
	outer := grid.Region{Lo: region.Lo[:inner], Hi: region.Hi[:inner]}
	var runs []run
	coords := make([]int, dims)
	if inner == 0 {
		return []run{{start: int64(region.Lo[0]), count: runLen}}
	}
	outer.Each(func(oc []int) {
		copy(coords, oc)
		coords[inner] = region.Lo[inner]
		runs = append(runs, run{start: shape.Linear(coords), count: runLen})
	})
	return runs
}
