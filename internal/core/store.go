package core

import (
	"fmt"

	"mloc/internal/binning"
	"mloc/internal/cache"
	"mloc/internal/compress"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/sfc"
)

// Store is a built MLOC variable store: per-bin subfiles on the PFS
// plus in-memory metadata (the catalog). It is safe for concurrent
// queries.
type Store struct {
	fs         *pfs.Sim
	prefix     string
	meta       *storeMeta
	chunks     *grid.Chunking
	scheme     *binning.Scheme
	curve      sfc.Curve
	byteCodec  compress.ByteCodec
	floatCodec compress.FloatCodec
	// floatDecode is the modelled compute of floatCodec's decode: its
	// per-unit and its per-value kind.
	floatDecode [2]pfs.CPU
	assignment  Assignment
	// decodeCache, when set, shares decoded unit values across queries
	// (and across stores, keyed by prefix). Set via SetDecodeCache.
	decodeCache *cache.Cache
	// hookBeforeBin is a test seam invoked before each bin a rank
	// processes; it lets tests cancel a context mid-query
	// deterministically. Nil outside tests.
	hookBeforeBin func(bin int)
	// tree is the super-bin tree over the bins that every
	// value-constrained plan walks; vidx stores its inner nodes' bitmaps,
	// nil when the store has none.
	tree *binning.Tree
	vidx *vindex
	// binOST is, per bin, the OST its subfiles start on, for pricing.
	binOST []binFiles
}

// binFiles holds one value per subfile of a bin.
type binFiles struct{ index, data int }

// newStore assembles the runtime view over metadata.
func newStore(fs *pfs.Sim, prefix string, meta *storeMeta, bc compress.ByteCodec, fc compress.FloatCodec) (*Store, error) {
	chunks, err := grid.NewChunking(meta.shape, meta.chunkSize)
	if err != nil {
		return nil, err
	}
	scheme, err := binning.FromBounds(meta.binBounds)
	if err != nil {
		return nil, err
	}
	if scheme.NumBins() != len(meta.bins) {
		return nil, fmt.Errorf("core: meta has %d bins but %d bounds-derived bins",
			len(meta.bins), scheme.NumBins())
	}
	curve, err := newChunkCurve(sfc.CurveKind(meta.curve), chunks)
	if err != nil {
		return nil, err
	}
	tree, err := binning.NewTree(scheme, indexFanout)
	if err != nil {
		return nil, err
	}
	binOST := make([]binFiles, len(meta.bins))
	for b := range binOST {
		binOST[b] = binFiles{index: fs.FileOST(binIndexPath(prefix, b)), data: fs.FileOST(binDataPath(prefix, b))}
	}
	return &Store{
		binOST:      binOST,
		fs:          fs,
		prefix:      prefix,
		meta:        meta,
		chunks:      chunks,
		scheme:      scheme,
		tree:        tree,
		curve:       curve,
		byteCodec:   bc,
		floatCodec:  fc,
		floatDecode: floatDecodeCPU(fc),
		assignment:  AssignColumn,
	}, nil
}

// floatDecodeCPU maps a float codec to the modelled kinds of its decode:
// per unit and per value.
func floatDecodeCPU(fc compress.FloatCodec) [2]pfs.CPU {
	if fc != nil {
		switch fc.Name() {
		case "isobar":
			return [2]pfs.CPU{pfs.CPUIsobarUnit, pfs.CPUIsobarValue}
		case "isabela":
			return [2]pfs.CPU{pfs.CPUIsabelaUnit, pfs.CPUIsabelaValue}
		}
	}
	return [2]pfs.CPU{pfs.CPURawUnit, pfs.CPURawValue}
}

// Open loads a previously built store from the PFS, charging the meta
// read to clk. Codecs are reconstructed from the recorded names with
// default parameters.
func Open(fs *pfs.Sim, clk *pfs.Clock, prefix string) (*Store, error) {
	raw, err := fs.ReadFile(clk, metaPath(prefix))
	if err != nil {
		return nil, err
	}
	meta, err := unmarshalStoreMeta(raw)
	if err != nil {
		return nil, err
	}
	var bc compress.ByteCodec
	var fc compress.FloatCodec
	if meta.mode == ModePlanes {
		bc, err = compress.NewByteCodec(meta.codecName)
	} else {
		fc, err = compress.NewFloatCodec(meta.codecName)
	}
	if err != nil {
		return nil, err
	}
	st, err := newStore(fs, prefix, meta, bc, fc)
	if err != nil {
		return nil, err
	}
	// The meta stores lengths and place derives the offsets, so a wrong
	// length would shift every later piece without an error: the layout
	// must fill each bin's subfiles exactly, and every unit must name a
	// chunk of the grid.
	nchunks := st.chunks.NumChunks()
	for b := range meta.bins {
		bm := &meta.bins[b]
		for _, u := range bm.units {
			if u.chunkID < 0 || u.chunkID >= nchunks {
				return nil, fmt.Errorf("core: meta bin %d names chunk %d outside [0,%d)", b, u.chunkID, nchunks)
			}
		}
		for _, f := range [2]struct {
			path string
			size int64
		}{{binDataPath(prefix, b), bm.dataSize}, {binIndexPath(prefix, b), bm.indexSize}} {
			size, err := fs.Size(f.path)
			if err != nil {
				return nil, fmt.Errorf("core: meta bin %d: %w", b, err)
			}
			if size != f.size {
				return nil, fmt.Errorf("core: meta bin %d lays out %d bytes for %s, which holds %d", b, f.size, f.path, size)
			}
		}
	}
	// Probe for the hierarchical index subfile; only its header and
	// offset table are read here, node payloads are fetched per query.
	st.vidx, err = openVindex(fs, clk, prefix, st.tree, st.meta.shape.Elems())
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Shape returns the variable's grid shape.
func (s *Store) Shape() grid.Shape { return s.meta.shape }

// NumBins returns the bin count.
func (s *Store) NumBins() int { return len(s.meta.bins) }

// Order returns the level priority order the store was built with.
func (s *Store) Order() Order { return s.meta.order }

// Mode returns the storage mode.
func (s *Store) Mode() Mode { return s.meta.mode }

// SetDecodeCache attaches a shared decoded-unit cache: data reads and
// decompression are skipped for units whose values are resident, and
// concurrent decodes of the same unit are deduplicated. Pass nil to
// detach. Not safe to call concurrently with running queries (attach
// the cache before serving).
func (s *Store) SetDecodeCache(c *cache.Cache) { s.decodeCache = c }

// Prefix returns the store's PFS path prefix (its identity in the
// shared decode cache).
func (s *Store) Prefix() string { return s.prefix }

// SetAssignment overrides the block-to-rank assignment policy (used by
// the assignment ablation).
func (s *Store) SetAssignment(a Assignment) error {
	if a != AssignColumn && a != AssignRoundRobin {
		return fmt.Errorf("core: unknown assignment %q", a)
	}
	s.assignment = a
	return nil
}

// DataBytes returns the total size of all bin data subfiles.
func (s *Store) DataBytes() int64 {
	var total int64
	for i := range s.meta.bins {
		total += s.meta.bins[i].dataSize
	}
	return total
}

// IndexBytes returns the total index overhead: bin index subfiles plus
// the serialized catalog metadata — everything beyond the data itself,
// matching Table I's "Index size" accounting.
func (s *Store) IndexBytes() int64 {
	var total int64
	for i := range s.meta.bins {
		total += s.meta.bins[i].indexSize
	}
	if sz, err := s.fs.Size(metaPath(s.prefix)); err == nil {
		total += sz
	}
	if s.vidx != nil {
		total += s.vidx.size
	}
	return total
}

// TotalBytes returns data + index footprint.
func (s *Store) TotalBytes() int64 { return s.DataBytes() + s.IndexBytes() }

// BinFileSizes returns each bin's (data, index) subfile sizes — the
// subfiling balance diagnostic.
func (s *Store) BinFileSizes() (data, index []int64) {
	data = make([]int64, len(s.meta.bins))
	index = make([]int64, len(s.meta.bins))
	for i := range s.meta.bins {
		data[i] = s.meta.bins[i].dataSize
		index[i] = s.meta.bins[i].indexSize
	}
	return data, index
}

// Scheme exposes the bin boundaries (read-only) for diagnostics.
func (s *Store) Scheme() *binning.Scheme { return s.scheme }
