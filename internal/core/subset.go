package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"mloc/internal/compress"
	"mloc/internal/grid"
	"mloc/internal/mpi"
	"mloc/internal/pfs"
	"mloc/internal/query"
	"mloc/internal/sfc"
)

// SubsetStore implements MLOC's subset-based multi-resolution layout
// (paper §III-B3, first approach; Fig. 1's topmost "hierarchical
// Hilbert curve mapping" stage): grid points are partitioned into
// nested resolution levels — level 0 is the coarsest stride-2^k
// subsample, each finer level adds the points that first appear at half
// the stride — and each level's points are stored contiguously in
// Hilbert order. A reader at resolution ℓ fetches only levels 0..ℓ:
// one contiguous scan per level, no seeks inside a level.
//
// As the paper notes, this approach "misses a large number of points in
// lower-resolution accesses" — it returns a spatial subsample, unlike
// PLoD which returns every point at reduced precision. Both are
// supported; the multires example contrasts them.
//
// The layout stores no per-point coordinates: the decoder re-walks the
// Hilbert curve exactly as the encoder did, which mirrors the paper's
// "no additional metadata must be stored to track this order" property
// of HSFC layouts.
type SubsetStore struct {
	fs     *pfs.Sim
	prefix string
	shape  grid.Shape
	curve  *sfc.Hilbert
	hier   *sfc.Hierarchy
	codec  compress.ByteCodec
	// levelOffsets[ℓ] / levelCounts[ℓ] locate each level's block table.
	levels []subsetLevel
}

// subsetLevel is one resolution level's storage: consecutive blocks of
// values (in hierarchical-Hilbert point order), individually
// compressed.
type subsetLevel struct {
	count  int64 // points in this level
	blocks []subsetBlock
}

type subsetBlock struct {
	off, length int64 // byte range in the level file
	count       int   // values in the block
}

// subsetBlockSize is the number of values per compressed block.
const subsetBlockSize = 1 << 14

// BuildSubset ingests a variable into the subset-based multi-resolution
// layout under prefix. The grid must be hyper-cubic with a power-of-two
// side (the hierarchical Hilbert mapping's domain); other shapes should
// use the PLoD path instead.
func BuildSubset(fs *pfs.Sim, clk *pfs.Clock, prefix string, shape grid.Shape, data []float64, codec compress.ByteCodec) (*SubsetStore, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if int64(len(data)) != shape.Elems() {
		return nil, fmt.Errorf("core: %d values for shape %v", len(data), shape)
	}
	side := shape[0]
	for d, s := range shape {
		if s != side {
			return nil, fmt.Errorf("core: subset store needs a hyper-cubic grid, dim %d has %d != %d", d, s, side)
		}
	}
	if side < 2 || side&(side-1) != 0 {
		return nil, fmt.Errorf("core: subset store needs a power-of-two side, got %d", side)
	}
	if codec == nil {
		codec = compress.NewZlib(compress.DefaultZlibLevel)
	}

	order := sfc.OrderFor(uint64(side))
	curve, err := sfc.NewHilbert(shape.Dims(), order)
	if err != nil {
		return nil, err
	}
	hier := sfc.NewHierarchy(curve)

	// Bucket values by (level, hilbert index).
	type pt struct {
		rank  uint64
		value float64
	}
	buckets := make([][]pt, hier.Levels())
	ucoords := make([]uint32, shape.Dims())
	coords := make([]int, 0, shape.Dims())
	for i := int64(0); i < shape.Elems(); i++ {
		coords = shape.Coords(i, coords[:0])
		for d, c := range coords {
			ucoords[d] = uint32(c)
		}
		lvl, rank := hier.Rank(ucoords)
		buckets[lvl] = append(buckets[lvl], pt{rank: rank, value: data[i]})
	}

	st := &SubsetStore{
		fs:     fs,
		prefix: prefix,
		shape:  shape.Clone(),
		curve:  curve,
		hier:   hier,
		codec:  codec,
		levels: make([]subsetLevel, hier.Levels()),
	}
	for lvl, pts := range buckets {
		sort.Slice(pts, func(a, b int) bool { return pts[a].rank < pts[b].rank })
		var file []byte
		sl := &st.levels[lvl]
		sl.count = int64(len(pts))
		for start := 0; start < len(pts); start += subsetBlockSize {
			end := start + subsetBlockSize
			if end > len(pts) {
				end = len(pts)
			}
			raw := make([]byte, 8*(end-start))
			for j, p := range pts[start:end] {
				binary.LittleEndian.PutUint64(raw[8*j:], math.Float64bits(p.value))
			}
			enc, err := codec.EncodeBytes(raw)
			if err != nil {
				return nil, fmt.Errorf("core: subset level %d: %w", lvl, err)
			}
			if len(enc) >= len(raw) {
				enc = raw // store raw when compression does not help
			}
			sl.blocks = append(sl.blocks, subsetBlock{
				off:    int64(len(file)),
				length: int64(len(enc)),
				count:  end - start,
			})
			file = append(file, enc...)
		}
		if err := fs.WriteFile(clk, subsetLevelPath(prefix, lvl), file); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func subsetLevelPath(prefix string, lvl int) string {
	return fmt.Sprintf("%s/level%02d", prefix, lvl)
}

// Levels returns the number of resolution levels.
func (s *SubsetStore) Levels() int { return s.hier.Levels() }

// SubsetResult is a resolution-ℓ read: the dense stride-subsampled grid
// and accounting.
type SubsetResult struct {
	// Level is the resolution level read.
	Level int
	// Stride is the sampling stride of the returned grid.
	Stride int
	// Shape is the subsampled grid's shape (ceil(side/stride) per dim).
	Shape grid.Shape
	// Values holds the subsampled grid, row-major in Shape.
	Values []float64
	// Time and BytesRead account the access.
	Time      query.Components
	BytesRead int64
}

// ReadLevel fetches the resolution-ℓ subsample of the whole domain
// using the given number of parallel ranks: levels 0..ℓ are read (each
// a contiguous scan), decoded, and scattered into the dense subsampled
// grid by re-walking the hierarchical Hilbert order.
func (s *SubsetStore) ReadLevel(level int, ranks int) (*SubsetResult, error) {
	if level < 0 || level >= s.Levels() {
		return nil, fmt.Errorf("core: subset level %d out of [0,%d)", level, s.Levels())
	}
	if ranks < 1 {
		return nil, fmt.Errorf("core: ranks %d < 1", ranks)
	}
	stride := int(s.hier.SubsetStride(level))
	outShape := make(grid.Shape, s.shape.Dims())
	for d := range outShape {
		outShape[d] = (s.shape[d] + stride - 1) / stride
	}
	res := &SubsetResult{
		Level:  level,
		Stride: stride,
		Shape:  outShape,
		Values: make([]float64, outShape.Elems()),
	}

	// Work list: every block of levels 0..level.
	type blockTask struct {
		lvl   int
		idx   int
		start int64 // cumulative point offset within the level
	}
	nblocks := 0
	for lvl := 0; lvl <= level; lvl++ {
		nblocks += len(s.levels[lvl].blocks)
	}
	tasks := make([]blockTask, 0, nblocks)
	for lvl := 0; lvl <= level; lvl++ {
		var cum int64
		for i, b := range s.levels[lvl].blocks {
			tasks = append(tasks, blockTask{lvl: lvl, idx: i, start: cum})
			cum += int64(b.count)
		}
	}

	// Decode each block into (level, position-in-level) value runs.
	type decoded struct {
		lvl    int
		start  int64
		values []float64
	}
	outs := make([][]decoded, ranks)
	times := make([]query.Components, ranks)
	bytesRead := make([]int64, ranks)
	clks := s.fs.NewClocks(ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		clk := clks[c.Rank()]
		opened := make(map[int]bool)
		for i := c.Rank(); i < len(tasks); i += c.Size() {
			bt := tasks[i]
			b := s.levels[bt.lvl].blocks[bt.idx]
			path := subsetLevelPath(s.prefix, bt.lvl)
			t0 := clk.Now()
			if !opened[bt.lvl] {
				if err := s.fs.Open(clk, path); err != nil {
					return err
				}
				opened[bt.lvl] = true
			}
			raw, err := s.fs.ReadAt(clk, path, b.off, b.length)
			if err != nil {
				return err
			}
			times[c.Rank()].IO += clk.Now() - t0
			bytesRead[c.Rank()] += b.length

			buf := raw
			if int(b.length) != 8*b.count {
				buf, err = compress.DecodeBytesMax(s.codec, raw, make([]byte, 0, 8*b.count), int64(8*b.count))
				if err != nil {
					return fmt.Errorf("core: subset block %d/%d: %w", bt.lvl, bt.idx, err)
				}
				times[c.Rank()].Decompress += clk.ChargeCPU(pfs.CPUInflateStream, 1) +
					clk.ChargeCPU(pfs.CPUInflate, int64(8*b.count))
			}
			if len(buf) != 8*b.count {
				return fmt.Errorf("core: subset block %d/%d: %d bytes, want %d",
					bt.lvl, bt.idx, len(buf), 8*b.count)
			}
			values := make([]float64, b.count)
			for j := range values {
				values[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
			}
			times[c.Rank()].Decompress += clk.ChargeCPU(pfs.CPURawValue, int64(b.count))
			outs[c.Rank()] = append(outs[c.Rank()], decoded{lvl: bt.lvl, start: bt.start, values: values})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Assemble per-level value streams.
	perLevel := make([][]float64, level+1)
	for lvl := 0; lvl <= level; lvl++ {
		perLevel[lvl] = make([]float64, s.levels[lvl].count)
	}
	var slowest float64
	for r := range outs {
		for _, d := range outs[r] {
			copy(perLevel[d.lvl][d.start:], d.values)
		}
		if t := times[r].Total(); t >= slowest {
			slowest = t
			res.Time = times[r]
		}
		res.BytesRead += bytesRead[r]
	}

	// Scatter: re-walk the Hilbert curve; points of level ≤ ℓ appear in
	// their level's stream in curve order.
	cursors := make([]int64, level+1)
	n := s.curve.Length()
	ucoords := make([]uint32, s.shape.Dims())
	outCoords := make([]int, s.shape.Dims())
	for d2 := uint64(0); d2 < n; d2++ {
		ucoords = s.curve.Coords(d2, ucoords[:0])
		inGrid := true
		for d, c := range ucoords {
			if int(c) >= s.shape[d] {
				inGrid = false
				break
			}
		}
		if !inGrid {
			continue
		}
		lvl := s.hier.Level(ucoords)
		if lvl > level {
			continue
		}
		v := perLevel[lvl][cursors[lvl]]
		cursors[lvl]++
		for d, c := range ucoords {
			outCoords[d] = int(c) / stride
		}
		res.Values[res.Shape.Linear(outCoords)] = v
	}
	return res, nil
}
