// Package core implements MLOC itself: the multi-level layout
// optimization pipeline (value binning → PLoD byte planes → Hilbert
// chunk ordering → compression), the per-bin subfiled organization on
// the PFS, and the parallel query engine for the paper's heterogeneous
// access patterns (region-only, value-retrieval, combined,
// multi-variable, and multi-resolution accesses).
package core

import (
	"fmt"
	"runtime"

	"mloc/internal/compress"
	"mloc/internal/grid"
	"mloc/internal/sfc"
)

// Level names one layout-optimization level of the pipeline.
type Level byte

// The three orderable levels (compression is always innermost, and
// value binning drives file partitioning, per paper §III-C).
const (
	LevelValue    Level = 'V'
	LevelMultires Level = 'M'
	LevelSpatial  Level = 'S'
)

// Order is the priority order of the levels, highest first. The paper's
// default is V-M-S; V-S-M is the Table VII alternative.
type Order []Level

// Common orders.
var (
	OrderVMS = Order{LevelValue, LevelMultires, LevelSpatial}
	OrderVSM = Order{LevelValue, LevelSpatial, LevelMultires}
)

// String renders the order as "V-M-S".
func (o Order) String() string {
	out := make([]byte, 0, len(o)*2)
	for i, l := range o {
		if i > 0 {
			out = append(out, '-')
		}
		out = append(out, byte(l))
	}
	return string(out)
}

// Validate checks the order is a permutation of {V,M,S} with V first.
// Value binning must lead because it determines the bin-per-file
// partitioning on the PFS (paper §III-C); M and S may swap freely.
func (o Order) Validate() error {
	if len(o) != 3 {
		return fmt.Errorf("core: order must have 3 levels, got %d", len(o))
	}
	seen := map[Level]bool{}
	for _, l := range o {
		switch l {
		case LevelValue, LevelMultires, LevelSpatial:
			if seen[l] {
				return fmt.Errorf("core: duplicate level %c in order", l)
			}
			seen[l] = true
		default:
			return fmt.Errorf("core: unknown level %c", l)
		}
	}
	if o[0] != LevelValue {
		return fmt.Errorf("core: level V must be first (it defines file partitioning), got %s", o)
	}
	return nil
}

// PlanesBeforeChunks reports whether the multiresolution level outranks
// the spatial level (V-M-S): plane-major layout inside each bin file.
func (o Order) PlanesBeforeChunks() bool {
	for _, l := range o {
		if l == LevelMultires {
			return true
		}
		if l == LevelSpatial {
			return false
		}
	}
	return true
}

// ParseOrder parses "V-M-S" / "VMS" style strings.
func ParseOrder(s string) (Order, error) {
	o := make(Order, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '-' {
			continue
		}
		o = append(o, Level(s[i]))
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// Mode selects the bottom-level storage representation.
type Mode string

// Storage modes: ModePlanes is the byte-column layout (MLOC-COL) that
// supports PLoD access; ModeFloats stores whole-unit float windows
// through a FloatCodec (MLOC-ISO, MLOC-ISA) and serves only
// full-precision reads.
const (
	ModePlanes Mode = "planes"
	ModeFloats Mode = "floats"
)

// Assignment selects how blocks map to ranks during queries.
type Assignment string

// Assignment policies: column order (the paper's, minimizing files per
// process) and round-robin (the ablation alternative).
const (
	AssignColumn     Assignment = "column"
	AssignRoundRobin Assignment = "roundrobin"
)

// Fixed build parameters. The meta format version fixes compressPlanes
// (the meta stores only plane 0's length, so changing it is a format
// change); every store's bin tree has indexFanout, which the vindex
// header records and Open checks.
const (
	// compressPlanes is how many leading byte planes run through the
	// byte codec in planes mode; the rest are stored raw. The paper
	// treats bytes 3..8 as incompressible: one compressed plane, plane
	// 0 = bytes 1-2.
	compressPlanes = 1
	// indexFanout is the arity of the super-bin tree that value plans
	// walk and HierarchicalIndex stores.
	indexFanout = 4
)

// Config parameterizes an MLOC store build.
type Config struct {
	// ChunkSize is the block extent per dimension (paper's "chunks").
	ChunkSize []int
	// NumBins is the number of equal-frequency value bins (paper: 100).
	NumBins int
	// Order is the level priority order; defaults to V-M-S.
	Order Order
	// Curve selects the chunk linearization curve (default Hilbert;
	// Z-order and row-major exist for the ablation).
	Curve sfc.CurveKind
	// Mode selects planes (COL) or floats (ISO/ISA) storage.
	Mode Mode
	// ByteCodec compresses the leading compressPlanes byte planes in
	// planes mode (default Zlib).
	ByteCodec compress.ByteCodec
	// FloatCodec encodes unit values in floats mode.
	FloatCodec compress.FloatCodec
	// SampleSize bounds the sample used for bin-boundary estimation.
	SampleSize int
	// BuildWorkers bounds the worker pool Build fans chunk binning and
	// per-bin encoding over; 0 means GOMAXPROCS. The produced store is
	// byte-identical for every worker count (see README §Parallel
	// builds), and the virtual clock charges each pass's modelled
	// compute divided by the pool width (at most one worker per chunk
	// or bin) — by modelledBuildWorkers when BuildWorkers is 0.
	BuildWorkers int
	// HierarchicalIndex stores the inner nodes of the super-bin tree
	// over the V-level as WAH bitmaps (the vindex subfile), letting
	// index-only range queries answer a fully-inside subtree from one
	// bitmap read instead of its bins' index files. A leaf is never
	// stored: its bins' offsets answer it. Off by default: the vindex
	// holds each position once per inner level, so it trades index
	// footprint for query latency. A tree with no inner level (one bin)
	// writes no vindex.
	HierarchicalIndex bool
}

// DefaultConfig returns the paper's MLOC-COL configuration for a given
// chunk size.
func DefaultConfig(chunkSize []int) Config {
	return Config{
		ChunkSize:  chunkSize,
		NumBins:    100,
		Order:      OrderVMS,
		Curve:      sfc.CurveHilbert,
		Mode:       ModePlanes,
		ByteCodec:  compress.NewZlib(compress.DefaultZlibLevel),
		SampleSize: 1 << 20,
	}
}

// ISOConfig returns the MLOC-ISO configuration (lossless float codec).
func ISOConfig(chunkSize []int) Config {
	c := DefaultConfig(chunkSize)
	c.Mode = ModeFloats
	c.FloatCodec = compress.NewIsobar(compress.DefaultZlibLevel)
	return c
}

// ISAConfig returns the MLOC-ISA configuration (lossy ISABELA codec).
func ISAConfig(chunkSize []int) Config {
	c := DefaultConfig(chunkSize)
	c.Mode = ModeFloats
	c.FloatCodec = compress.NewIsabela(compress.DefaultIsabelaConfig())
	return c
}

// ModeConfig returns the configuration of the named MLOC variant — col
// (DefaultConfig), iso (ISOConfig) or isa (ISAConfig) — for a chunk
// size; it is the -mode switch of both CLIs.
func ModeConfig(mode string, chunkSize []int) (Config, error) {
	switch mode {
	case "col":
		return DefaultConfig(chunkSize), nil
	case "iso":
		return ISOConfig(chunkSize), nil
	case "isa":
		return ISAConfig(chunkSize), nil
	default:
		return Config{}, fmt.Errorf("core: unknown mode %q (want col, iso, or isa)", mode)
	}
}

// DefaultChunk is the chunk size the CLIs use when none is given: a
// sixteenth of the grid per dimension, at least 1.
func DefaultChunk(shape grid.Shape) []int {
	chunk := make([]int, shape.Dims())
	for d := range chunk {
		chunk[d] = max(shape[d]/16, 1)
	}
	return chunk
}

// normalize fills defaults and validates.
func (c *Config) normalize() error {
	if len(c.ChunkSize) == 0 {
		return fmt.Errorf("core: ChunkSize is required")
	}
	for d, cs := range c.ChunkSize {
		if cs <= 0 {
			return fmt.Errorf("core: ChunkSize[%d] = %d must be positive", d, cs)
		}
	}
	if c.NumBins < 1 {
		return fmt.Errorf("core: NumBins %d < 1", c.NumBins)
	}
	if c.Order == nil {
		c.Order = OrderVMS
	}
	if err := c.Order.Validate(); err != nil {
		return err
	}
	if c.Curve == "" {
		c.Curve = sfc.CurveHilbert
	}
	if c.Mode == "" {
		c.Mode = ModePlanes
	}
	switch c.Mode {
	case ModePlanes:
		if c.ByteCodec == nil {
			c.ByteCodec = compress.NewZlib(compress.DefaultZlibLevel)
		}
	case ModeFloats:
		if c.FloatCodec == nil {
			return fmt.Errorf("core: floats mode requires a FloatCodec")
		}
	default:
		return fmt.Errorf("core: unknown mode %q", c.Mode)
	}
	if c.SampleSize < 1 {
		c.SampleSize = 1 << 20
	}
	if c.BuildWorkers < 0 {
		return fmt.Errorf("core: BuildWorkers %d < 0", c.BuildWorkers)
	}
	return nil
}

// modelledBuildWorkers is the pool width a build with BuildWorkers 0 is
// charged for. Its goroutines still number GOMAXPROCS, but its modelled
// compute is divided by this constant, so its virtual seconds are the
// same on every host rather than a function of the core count.
const modelledBuildWorkers = 4

// buildWorkers returns, for a build pass over n items, the worker pool
// it runs on and the width its modelled compute is divided by, each at
// most one worker per item: BuildWorkers for both, or GOMAXPROCS
// goroutines charged as modelledBuildWorkers when it is 0.
func (c *Config) buildWorkers(n int) (pool, charged int) {
	pool, charged = c.BuildWorkers, c.BuildWorkers
	if pool == 0 {
		pool, charged = runtime.GOMAXPROCS(0), modelledBuildWorkers
	}
	return max(1, min(pool, n)), max(1, min(charged, n))
}
