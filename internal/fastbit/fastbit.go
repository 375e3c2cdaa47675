// Package fastbit implements the from-scratch FastBit comparator
// (Wu, 2005): a binned bitmap index with WAH-compressed bitmaps over
// the raw data. Following the paper's experimental setup (§IV), the
// index uses fine-grained "precision" binning (many bins — the paper's
// configuration produced a 10 GB index for 8 GB of data) and is stored
// on the PFS; every query loads the full index from disk first, which
// is the behavior behind FastBit's flat ≈37 s rows in Tables II/III.
package fastbit

import (
	"encoding/binary"
	"fmt"
	"math"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/grid"
	"mloc/internal/mpi"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// Config parameterizes index construction.
type Config struct {
	// NumBins is the bitmap bin count. FastBit's precision binning on
	// doubles yields many fine bins; the default of 1024 reproduces the
	// paper's index-larger-than-data regime.
	NumBins int
	// SampleSize bounds the values sampled for bin-boundary estimation.
	SampleSize int
}

// DefaultConfig mirrors the paper's FastBit setup.
func DefaultConfig() Config {
	return Config{NumBins: 1024, SampleSize: 1 << 20}
}

// Store is a FastBit-style indexed store on the PFS.
type Store struct {
	fs     *pfs.Sim
	prefix string
	shape  grid.Shape
	scheme *binning.Scheme
	// bitmapOffsets locates each bin's serialized WAH bitmap inside the
	// index file (kept in memory as catalog metadata, as FastBit does).
	bitmapOffsets []int64
	indexSize     int64
}

// Build constructs the index and base data on the PFS under prefix,
// charging write time to clk.
func Build(fs *pfs.Sim, clk *pfs.Clock, prefix string, shape grid.Shape, data []float64, cfg Config) (*Store, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if int64(len(data)) != shape.Elems() {
		return nil, fmt.Errorf("fastbit: %d values for shape %v", len(data), shape)
	}
	if cfg.NumBins < 1 {
		return nil, fmt.Errorf("fastbit: NumBins %d < 1", cfg.NumBins)
	}
	if cfg.SampleSize < 1 {
		cfg.SampleSize = 1 << 20
	}

	// Base data: raw row-major (FastBit indexes existing files).
	raw := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	if err := fs.WriteFile(clk, prefix+"/data", raw); err != nil {
		return nil, err
	}

	// Equal-frequency boundaries from a sample (precision binning
	// surrogate: fine bins, value-ordered).
	sample := data
	if len(sample) > cfg.SampleSize {
		step := len(data) / cfg.SampleSize
		sample = make([]float64, 0, cfg.SampleSize)
		for i := 0; i < len(data); i += step {
			sample = append(sample, data[i])
		}
	}
	scheme, err := binning.Build(binning.EqualFrequency, sample, cfg.NumBins)
	if err != nil {
		return nil, err
	}
	// The sample may miss the data extremes, and BinOf clamps
	// out-of-range values into the edge bins; widen the outer bounds so
	// the aligned-bin bitmap path never returns a clamped value that
	// violates the constraint (same fix as core's builder).
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scheme = scheme.CoverRange(lo, hi)

	// One plain bitmap per bin, then WAH-compress.
	n := int64(len(data))
	plains := make([]*bitmap.Bitmap, scheme.NumBins())
	for i := range plains {
		plains[i] = bitmap.New(n)
	}
	for i, v := range data {
		plains[scheme.BinOf(v)].Set(int64(i))
	}

	var index []byte
	offsets := make([]int64, scheme.NumBins()+1)
	for i, pb := range plains {
		offsets[i] = int64(len(index))
		enc, err := bitmap.Compress(pb).MarshalBinary()
		if err != nil {
			return nil, err
		}
		index = append(index, enc...)
	}
	offsets[len(plains)] = int64(len(index))

	if err := fs.WriteFile(clk, prefix+"/index", index); err != nil {
		return nil, err
	}
	return &Store{
		fs:            fs,
		prefix:        prefix,
		shape:         shape,
		scheme:        scheme,
		bitmapOffsets: offsets,
		indexSize:     int64(len(index)),
	}, nil
}

// DataBytes returns the base-data footprint.
func (s *Store) DataBytes() int64 { return 8 * s.shape.Elems() }

// IndexBytes returns the index footprint (Table I's FastBit index
// column).
func (s *Store) IndexBytes() int64 { return s.indexSize }

// binExtent locates a leaf bin's serialized bitmap in the index file.
func (s *Store) binExtent(bin int) pfs.Extent {
	return pfs.Extent{Off: s.bitmapOffsets[bin], Len: s.bitmapOffsets[bin+1] - s.bitmapOffsets[bin]}
}

// Query answers a request with the given rank count. The request is
// resolved to two lists of leaf bitmaps in the index file: those whose
// every set bit satisfies the VC by construction (aligned bins) and
// those whose candidates' values must be checked (edge bins). Per the
// paper's observed behavior every query first loads the entire index
// from the PFS, rank-partitioned; each rank then evaluates its share of
// both lists and fetches candidate values from the base data where
// needed.
func (s *Store) Query(req *query.Request, ranks int) (*query.Result, error) {
	if err := req.Validate(s.shape); err != nil {
		return nil, err
	}
	if req.Rows != nil {
		return nil, fmt.Errorf("fastbit: row ranges are not supported")
	}
	if ranks < 1 {
		return nil, fmt.Errorf("fastbit: ranks %d < 1", ranks)
	}

	// Bins relevant to the VC (everything when unconstrained).
	var aligned, edge []int
	if req.VC != nil {
		aligned, edge = s.scheme.SelectBins(*req.VC)
	} else {
		for b := 0; b < s.scheme.NumBins(); b++ {
			aligned = append(aligned, b)
		}
	}
	var sure, check []pfs.Extent
	for _, b := range aligned {
		sure = append(sure, s.binExtent(b))
	}
	for _, b := range edge {
		check = append(check, s.binExtent(b))
	}
	outs := make([]query.Result, ranks)
	clks := s.fs.NewClocks(ranks)
	indexPath := s.prefix + "/index"
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		clk := clks[c.Rank()]
		out := &outs[c.Rank()]
		// This rank's share of a list: every ranks-th bitmap.
		mine := func(all []pfs.Extent) []pfs.Extent {
			var share []pfs.Extent
			for i := c.Rank(); i < len(all); i += c.Size() {
				share = append(share, all[i])
			}
			return share
		}
		// Load the FULL index (the paper's dominating cost): ranks read
		// disjoint partitions concurrently. The open is part of the read.
		t0 := clk.Now()
		if err := s.fs.Open(clk, indexPath); err != nil {
			return err
		}
		per := (s.indexSize + int64(c.Size()) - 1) / int64(c.Size())
		lo := per * int64(c.Rank())
		hi := min(lo+per, s.indexSize)
		if lo < hi {
			if _, err := s.fs.ReadAt(clk, indexPath, lo, hi-lo); err != nil {
				return err
			}
			out.BytesRead += hi - lo
		}
		out.Time.IO += clk.Now() - t0
		if err := c.Barrier(); err != nil {
			return err
		}

		for _, e := range mine(sure) {
			if err := s.evalBitmap(clk, out, e, req, false); err != nil {
				return err
			}
		}
		for _, e := range mine(check) {
			if err := s.evalBitmap(clk, out, e, req, true); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := query.Gather(outs)
	res.BinsAccessed = len(aligned) + len(edge)
	return res, nil
}

// evalBitmap evaluates one serialized bitmap of the index file: its set
// bits inside the SC become matches — directly for an index-only request
// when the bitmap satisfies the VC by construction, otherwise after
// their values are fetched from the base data (and, with check, tested
// against the VC). The index bytes were already paid for by the ranks'
// full index load — possibly by another rank's partition of it — so
// Peek re-slices them without double-charging the cost model.
func (s *Store) evalBitmap(clk *pfs.Clock, out *query.Result, e pfs.Extent, req *query.Request, check bool) error {
	raw, err := s.fs.Peek(s.prefix+"/index", e.Off, e.Len)
	if err != nil {
		return err
	}
	var w bitmap.WAH
	if err := w.UnmarshalBinary(raw); err != nil {
		return fmt.Errorf("fastbit: bitmap at index offset %d: %w", e.Off, err)
	}
	var pending []int64
	var bits int64
	from := len(out.Matches)
	coords := make([]int, 0, s.shape.Dims())
	w.Decompress().Each(func(i int64) {
		bits++
		if req.SC != nil {
			coords = s.shape.Coords(i, coords[:0])
			if !req.SC.Contains(coords) {
				return
			}
		}
		if req.IndexOnly && !check {
			out.Matches = append(out.Matches, query.Match{Index: i})
			return
		}
		pending = append(pending, i)
	})
	out.Time.Decompress += clk.ChargeCPU(pfs.CPUWAHWord, w.Words()) + clk.ChargeCPU(pfs.CPUBitmapWord, (w.Len()+63)/64) +
		clk.ChargeCPU(pfs.CPUBit, bits) + clk.ChargeCPU(pfs.CPUMatch, int64(len(out.Matches)-from))
	if req.SC != nil {
		out.Time.Decompress += clk.ChargeCPU(pfs.CPUPoint, bits)
	}
	if len(pending) == 0 {
		return nil
	}
	return s.fetchValues(clk, out, pending, req, check)
}

// fetchValues reads candidate point values from the base data,
// coalescing adjacent indices into single reads, filters by the VC when
// check is set, and appends matches.
func (s *Store) fetchValues(clk *pfs.Clock, out *query.Result, indices []int64, req *query.Request, check bool) error {
	t0 := clk.Now()
	if err := s.fs.Open(clk, s.prefix+"/data"); err != nil {
		return err
	}
	out.Time.IO += clk.Now() - t0
	for i := 0; i < len(indices); {
		j := i + 1
		for j < len(indices) && indices[j] == indices[j-1]+1 {
			j++
		}
		start := indices[i]
		count := indices[j-1] - start + 1
		t0 := clk.Now()
		raw, err := s.fs.ReadAt(clk, s.prefix+"/data", start*8, count*8)
		if err != nil {
			return err
		}
		out.Time.IO += clk.Now() - t0
		out.BytesRead += count * 8
		from := len(out.Matches)
		for k := int64(0); k < count; k++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*k:]))
			if check && !req.VC.Contains(v) {
				continue
			}
			// An index-only request gets here only to have the VC checked.
			m := query.Match{Index: start + k}
			if !req.IndexOnly {
				m.Value = v
			}
			out.Matches = append(out.Matches, m)
		}
		out.Time.Reconstruct += clk.ChargeCPU(pfs.CPUScan, count) + clk.ChargeCPU(pfs.CPUMatch, int64(len(out.Matches)-from))
		i = j
	}
	return nil
}
