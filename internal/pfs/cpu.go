package pfs

// CPU names one kind of compute that the engines charge from the model
// instead of a stopwatch, at query time and at build time: virtual
// seconds are then a function of what was done, not of how busy the host
// was, so every rank's clock — and which rank is slowest — and every
// build's clock repeat exactly.
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
	// The SciDB comparator's engine overheads beyond its scan loop: a
	// fixed cost per chunk, one per cell iterated and one per result
	// materialized. They are not measured; they are set so the 8 GB
	// region-query row lands in the paper's few-hundred-seconds regime
	// and high-selectivity rows grow as the paper's do (206 s at 1 %,
	// 677 s at 10 %).
	CPUSciDBChunk
	CPUSciDBCell
	CPUSciDBMatch

	// Build kinds. A build's loops work unit by unit (a unit is one
	// chunk's points in one bin), so most have a fixed cost per unit and
	// one per value.
	// CPUBin, CPUBinUnit: one value extracted from its chunk and binned;
	// one unit gathered and merged into its bin (build pass 1).
	CPUBin
	CPUBinUnit
	// CPUOffsetEncode, CPUOffsetUnit: one intra-chunk offset
	// delta-encoded into a positional index; one unit's index entry.
	CPUOffsetEncode
	CPUOffsetUnit
	// CPUSplit, CPUSplitUnit: one value split into PLoD byte planes and
	// staged into its bin's layout; one unit's planes probed
	// (ZlibFloor) and placed.
	CPUSplit
	CPUSplitUnit
	// CPUDeflateCall: one deflate stream written; CPUDeflate: one byte
	// into it.
	CPUDeflateCall
	CPUDeflate
	// A float codec's encode: one value of the raw codec (a raw unit
	// has no fixed cost, encode or decode: CPURawUnit), and a fixed cost
	// per unit plus one per value for ISOBAR and ISABELA.
	CPURawEncodeValue
	CPUIsobarEncodeUnit
	CPUIsobarEncodeValue
	CPUIsabelaEncodeUnit
	CPUIsabelaEncodeValue
	// CPUPosition, CPUPositionUnit: one point's global position computed
	// and set in a verbatim bitmap; one unit's chunk placed.
	CPUPosition
	CPUPositionUnit
	// CPUWAHGroup: one 31-bit group of a WAH bitmap produced, by
	// compressing a verbatim bitmap or by ORing two WAH bitmaps, and
	// marshalled.
	CPUWAHGroup

	numCPU
)

// cpuRates is the committed rate table: seconds per unit of each kind,
// at CPUScale 1. The query kinds were calibrated with
//
//	go test ./internal/core -run '^$' -bench '^BenchmarkCPURates$' -benchtime 2000x -count 5
//
// before the benchmark also timed the build's loops, and the build
// kinds, whose loops take milliseconds, with
//
//	go test ./internal/core -run '^$' -bench 'BenchmarkCPURates/^(bin.*|offset_.*|split.*|deflate.*|.*_encode_.*|position.*|wah_group)$' -benchtime 200x -count 5
//
// on a 2-vCPU x86-64 host (Intel Xeon @ 2.10GHz). The benchmark times
// the engines' own inner loops over one bin of a GTS store cut as the
// bench fixture is: decodeOffsets, the deflate and float-codec decoders
// (per byte or value from one large stream, the fixed part from the
// bin's small units), plod.Assemble, WAH decode and iteration, FastBit's
// expand-and-visit of its sparse per-bin bitmaps, the filter-and-emit
// loop and a raw scan; and the build's: pass 1's binning, the
// positional-index encoder, the PLoD split, deflate and the float-codec
// encoders (per value from a one-bin store's 1 024-value units or one
// large stream, the fixed part from the bin's units), and the vindex's
// positions and WAH groups. Each rate is the median of the five runs
// to two significant figures; a raw float unit has no fixed cost beyond
// its values. A build loop's fixed cost has a kind of its own where it
// exceeds a tenth of a ten-value unit's cost — every one measured does.
// Re-calibrate when one of those loops changes cost materially, and
// record the medians with the change.
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
	CPUSciDBChunk:    200e-6,
	CPUSciDBCell:     400e-9,
	CPUSciDBMatch:    4e-6,

	CPUBin:                43e-9,
	CPUBinUnit:            1.1e-6,
	CPUOffsetEncode:       4.4e-9,
	CPUOffsetUnit:         87e-9,
	CPUSplit:              11e-9,
	CPUSplitUnit:          360e-9,
	CPUDeflateCall:        20e-6,
	CPUDeflate:            53e-9,
	CPURawEncodeValue:     0.96e-9,
	CPUIsobarEncodeUnit:   22e-6,
	CPUIsobarEncodeValue:  130e-9,
	CPUIsabelaEncodeUnit:  17e-6,
	CPUIsabelaEncodeValue: 310e-9,
	CPUPosition:           11e-9,
	CPUPositionUnit:       42e-9,
	CPUWAHGroup:           33e-9,
}

// CPUSeconds returns the modelled seconds of units of kind at CPUScale
// 1, for work that is summed before it is charged (a build pass charges
// its total divided among its workers).
func CPUSeconds(kind CPU, units int64) float64 {
	return cpuRates[kind] * float64(units)
}

// ChargeCPU charges units of kind at the committed rate, multiplied by
// the clock's CPU scale, and returns the charged delta.
func (c *Clock) ChargeCPU(kind CPU, units int64) float64 {
	return c.AdvanceCPU(CPUSeconds(kind, units))
}
