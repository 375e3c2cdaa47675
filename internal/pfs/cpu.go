package pfs

// CPU names one kind of query-time compute that the engines charge from
// the model instead of a stopwatch: a query's virtual seconds are then a
// function of what it did, not of how busy the host was, so every rank's
// clock — and which rank is slowest — repeats exactly.
type CPU int

// The modelled kinds. Each is charged per unit of work named here; the
// engines count the units as they go.
const (
	// CPUOffset: one intra-chunk offset decoded from a positional index.
	CPUOffset CPU = iota
	// CPUInflateStream: one deflate stream set up; CPUInflate: one byte
	// out of it.
	CPUInflateStream
	CPUInflate
	// CPUAssemble: one value assembled from its PLoD byte planes.
	CPUAssemble
	// A float codec's decode: a fixed cost per unit (stream) and one per
	// value out of it, for the raw, ISOBAR and ISABELA codecs.
	CPURawUnit
	CPURawValue
	CPUIsobarUnit
	CPUIsobarValue
	CPUIsabelaUnit
	CPUIsabelaValue
	// CPUBitmapByte: one byte of a serialized WAH bitmap decoded.
	CPUBitmapByte
	// CPUWAHWord: one compressed word of a WAH bitmap expanded to
	// verbatim form; CPUBitmapWord: 64 positions of a verbatim bitmap
	// allocated and scanned.
	CPUWAHWord
	CPUBitmapWord
	// CPUBit: one set bit of a bitmap visited.
	CPUBit
	// CPUPoint: one point mapped to its global index and tested against
	// a query's predicate.
	CPUPoint
	// CPUMatch: one match appended to an answer.
	CPUMatch
	// CPUScan: one raw float read from a scanned buffer and tested.
	CPUScan

	numCPU
)

// cpuRates is the committed rate table: seconds per unit of each kind,
// at CPUScale 1. It was calibrated with
//
//	go test ./internal/core -run '^$' -bench '^BenchmarkCPURates$' -benchtime 2000x -count 5
//
// on a 2-vCPU x86-64 host (Intel Xeon @ 2.10GHz), which times the
// engines' own inner loops over one bin of a GTS store cut as the bench
// fixture is: decodeOffsets, the deflate and float-codec decoders
// (per byte or value from one large stream, the fixed part from the
// bin's small units), plod.Assemble, WAH decode and iteration, FastBit's
// expand-and-visit of its sparse per-bin bitmaps, the filter-and-emit
// loop and a raw scan. Each rate is the median of the five runs to two
// significant figures; a raw float unit has no fixed cost beyond its
// values. Re-calibrate when one of those loops changes cost materially,
// and record the medians with the change.
var cpuRates = [numCPU]float64{
	CPUOffset:        3.1e-9,
	CPUInflateStream: 880e-9,
	CPUInflate:       2.5e-9,
	CPUAssemble:      13e-9,
	CPURawUnit:       0,
	CPURawValue:      2.2e-9,
	CPUIsobarUnit:    1.2e-6,
	CPUIsobarValue:   21e-9,
	CPUIsabelaUnit:   1.2e-6,
	CPUIsabelaValue:  83e-9,
	CPUBitmapByte:    1.0e-9,
	CPUWAHWord:       46e-9,
	CPUBitmapWord:    5.5e-9,
	CPUBit:           4.9e-9,
	CPUPoint:         24e-9,
	CPUMatch:         2.6e-9,
	CPUScan:          7.8e-9,
}

// ChargeCPU charges units of kind at the committed rate, multiplied by
// the clock's CPU scale, and returns the charged delta.
func (c *Clock) ChargeCPU(kind CPU, units int64) float64 {
	return c.AdvanceCPU(cpuRates[kind] * float64(units))
}
