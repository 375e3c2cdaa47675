// Package scidb implements the SciDB-style comparator: a chunked array
// store with overlap replication along chunk boundaries (Brown 2010;
// Soroush et al. 2011). Chunks are stored row-major-by-chunk in one
// array file; each chunk carries an overlap halo so window operations
// avoid neighbor reads, which inflates stored data over the raw size
// (the asterisked Table I row).
//
// Spatially-constrained queries read exactly the chunks intersecting
// the region. Value-constrained queries have no index to use and scan
// every chunk through the engine's tuple iterator; the iterator's
// per-cell overhead (modeled as a calibrated CPU cost, DESIGN.md §2)
// reproduces the paper's SciDB rows being far slower than even raw
// sequential scan.
package scidb

import (
	"encoding/binary"
	"fmt"
	"math"

	"mloc/internal/grid"
	"mloc/internal/mpi"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// Config parameterizes the store.
type Config struct {
	// ChunkSize is the chunk extent per dimension.
	ChunkSize []int
	// Overlap is the halo width replicated on every chunk face.
	Overlap int
	// PerCellCPU is the engine's per-cell iterator cost in seconds,
	// charged while scanning chunk contents. The default (400 ns) is
	// calibrated so the 8 GB region-query row lands in the paper's
	// few-hundred-seconds regime.
	PerCellCPU float64
	// PerMatchCPU is the engine's per-result materialization cost in
	// seconds; it makes high-selectivity queries grow the way the
	// paper's SciDB rows do (206 s at 1% vs 677 s at 10%).
	PerMatchCPU float64
	// PerChunkCPU is the fixed per-chunk engine overhead in seconds.
	PerChunkCPU float64
}

// DefaultConfig mirrors the paper's setup: the same chunk sizes as
// MLOC, a one-cell overlap, and engine overheads calibrated to the
// paper's measurements.
func DefaultConfig(chunkSize []int) Config {
	return Config{
		ChunkSize:   chunkSize,
		Overlap:     1,
		PerCellCPU:  400e-9,
		PerMatchCPU: 4e-6,
		PerChunkCPU: 200e-6,
	}
}

// Store is a SciDB-style chunk store on the PFS.
type Store struct {
	fs     *pfs.Sim
	prefix string
	shape  grid.Shape
	cfg    Config
	chunks *grid.Chunking
	// offsets[i] is the byte offset of chunk i in the array file;
	// offsets[n] is the file size.
	offsets []int64
	// regions[i] is chunk i's stored region including overlap.
	regions []grid.Region
}

// Build chunkifies the variable with overlap replication and writes the
// array file, charging write time to clk.
func Build(fs *pfs.Sim, clk *pfs.Clock, prefix string, shape grid.Shape, data []float64, cfg Config) (*Store, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if int64(len(data)) != shape.Elems() {
		return nil, fmt.Errorf("scidb: %d values for shape %v", len(data), shape)
	}
	if cfg.Overlap < 0 {
		return nil, fmt.Errorf("scidb: negative overlap %d", cfg.Overlap)
	}
	chunks, err := grid.NewChunking(shape, cfg.ChunkSize)
	if err != nil {
		return nil, err
	}
	n := chunks.NumChunks()
	offsets := make([]int64, n+1)
	regions := make([]grid.Region, n)
	var buf []byte
	for id := int64(0); id < n; id++ {
		offsets[id] = int64(len(buf))
		core := chunks.ChunkRegionByID(id)
		// Expand by the overlap halo, clipped to the domain.
		lo := make([]int, shape.Dims())
		hi := make([]int, shape.Dims())
		for d := range lo {
			lo[d] = core.Lo[d] - cfg.Overlap
			if lo[d] < 0 {
				lo[d] = 0
			}
			hi[d] = core.Hi[d] + cfg.Overlap
			if hi[d] > shape[d] {
				hi[d] = shape[d]
			}
		}
		stored := grid.Region{Lo: lo, Hi: hi}
		regions[id] = stored
		stored.Each(func(coords []int) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(data[shape.Linear(coords)]))
			buf = append(buf, b[:]...)
		})
	}
	offsets[n] = int64(len(buf))
	if err := fs.WriteFile(clk, prefix+"/array", buf); err != nil {
		return nil, err
	}
	return &Store{
		fs: fs, prefix: prefix, shape: shape, cfg: cfg,
		chunks: chunks, offsets: offsets, regions: regions,
	}, nil
}

// StorageBytes returns the stored array size including overlap
// replication (Table I's SciDB row).
func (s *Store) StorageBytes() int64 { return s.offsets[len(s.offsets)-1] }

// Query executes a request over the given number of ranks.
func (s *Store) Query(req *query.Request, ranks int) (*query.Result, error) {
	if err := req.Validate(s.shape); err != nil {
		return nil, err
	}
	if req.Rows != nil {
		return nil, fmt.Errorf("scidb: row ranges are not supported")
	}
	if ranks < 1 {
		return nil, fmt.Errorf("scidb: ranks %d < 1", ranks)
	}

	// Chunk set: SC-constrained reads touch intersecting chunks; any VC
	// without SC forces a full-array chunk scan.
	var ids []int64
	if req.SC != nil {
		ids = s.chunks.OverlappingChunks(*req.SC)
	} else {
		ids = make([]int64, s.chunks.NumChunks())
		for i := range ids {
			ids[i] = int64(i)
		}
	}

	outs := make([]query.Result, ranks)
	clks := s.fs.NewClocks(ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		clk, out := clks[c.Rank()], &outs[c.Rank()]
		// The open is part of the rank's I/O.
		t0 := clk.Now()
		if err := s.fs.Open(clk, s.prefix+"/array"); err != nil {
			return err
		}
		out.Time.IO += clk.Now() - t0
		coords := make([]int, s.shape.Dims())
		for i := c.Rank(); i < len(ids); i += c.Size() {
			id := ids[i]
			lo, hi := s.offsets[id], s.offsets[id+1]
			t0 := clk.Now()
			raw, err := s.fs.ReadAt(clk, s.prefix+"/array", lo, hi-lo)
			if err != nil {
				return err
			}
			out.Time.IO += clk.Now() - t0
			out.BytesRead += hi - lo
			out.BlocksRead++

			stored := s.regions[id]
			core := s.chunks.ChunkRegionByID(id)
			cells := stored.Elems()
			matchesBefore := len(out.Matches)
			j := -1
			stored.Each(func(cc []int) {
				j++
				// Skip halo cells: they belong to a neighbor's core.
				copy(coords, cc)
				if !core.Contains(coords) {
					return
				}
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
				if req.VC != nil && !req.VC.Contains(v) {
					return
				}
				if req.SC != nil && !req.SC.Contains(coords) {
					return
				}
				m := query.Match{Index: s.shape.Linear(coords)}
				if !req.IndexOnly {
					m.Value = v
				}
				out.Matches = append(out.Matches, m)
			})
			matched := int64(len(out.Matches) - matchesBefore)
			// The loop above, then the engine's iterator overhead: per
			// chunk + per cell + per result.
			out.Time.Reconstruct += clk.ChargeCPU(pfs.CPUScan, cells) + clk.ChargeCPU(pfs.CPUMatch, matched)
			engine := s.cfg.PerChunkCPU + float64(cells)*s.cfg.PerCellCPU + float64(matched)*s.cfg.PerMatchCPU
			out.Time.Reconstruct += clk.AdvanceCPU(engine)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	return query.Gather(outs), nil
}
