// Package plod implements MLOC's Precision-based Level of Detail
// (paper §III-B3, Figure 3): a byte-level multi-resolution encoding of
// double-precision data.
//
// Each float64 is viewed as 8 bytes, most-significant first (sign,
// exponent, then fraction bytes). The bytes are regrouped into seven
// "planes": plane 0 holds the first two bytes of every value (the
// minimum needed to carry the sign, full exponent, and the top four
// fraction bits), and planes 1..6 each hold one further byte of every
// value. Reading planes 0..L-1 yields PLoD level L (level 1 = 2 bytes
// per value, level 7 = all 8 bytes, full precision).
//
// Missing low-order bytes are reassembled with the paper's dummy fill:
// 0x7F in the first absent byte and 0xFF in the rest, which centers the
// reconstruction inside the truncation interval instead of biasing it
// downward the way zero fill would.
package plod

import (
	"fmt"
	"math"
)

// NumPlanes is the number of byte planes (7: one 2-byte plane plus six
// 1-byte planes).
const NumPlanes = 7

// MaxLevel is the number of PLoD levels; level MaxLevel is full
// precision.
const MaxLevel = 7

// FillByteFirst is the dummy byte substituted for the first absent
// (truncated) byte when reassembling a partial-precision value: the
// paper's centered fill, placing the reconstruction in the middle of
// the truncation interval. See Assemble.
const FillByteFirst byte = 0x7F

// FillByteRest is the dummy byte substituted for every absent byte
// after the first; together with FillByteFirst it forms the
// 0x7F 0xFF 0xFF... tail of a truncated value.
const FillByteRest byte = 0xFF

// BytesPerValue returns how many leading bytes of each float64 a reader
// at the given PLoD level fetches (level 1 → 2 bytes … level 7 → 8).
func BytesPerValue(level int) int {
	checkLevel(level)
	return level + 1
}

// PlanesForLevel returns how many leading planes a reader at the given
// level needs (level L needs planes 0..L-1).
func PlanesForLevel(level int) int {
	checkLevel(level)
	return level
}

// PlaneWidth returns the number of bytes each value contributes to
// plane p: 2 for plane 0, 1 for the rest.
func PlaneWidth(p int) int {
	if p < 0 || p >= NumPlanes {
		panic(fmt.Sprintf("plod: plane %d out of [0,%d)", p, NumPlanes))
	}
	if p == 0 {
		return 2
	}
	return 1
}

func checkLevel(level int) {
	if level < 1 || level > MaxLevel {
		panic(fmt.Sprintf("plod: level %d out of [1,%d]", level, MaxLevel))
	}
}

// Split decomposes values into the seven byte planes. Plane p has
// len(values)*PlaneWidth(p) bytes, with each value's contribution
// stored contiguously in value order (so plane streams compress well
// and partial reads are sequential). Every call allocates fresh plane
// buffers; encoders that split many units per build should reuse a
// pooled SplitScratch instead.
func Split(values []float64) [NumPlanes][]byte {
	var planes [NumPlanes][]byte
	splitInto(values, &planes)
	return planes
}

// splitInto fills planes from values, reusing each plane's capacity
// when it suffices.
func splitInto(values []float64, planes *[NumPlanes][]byte) {
	n := len(values)
	for p := 0; p < NumPlanes; p++ {
		need := n * PlaneWidth(p)
		if cap(planes[p]) >= need {
			planes[p] = planes[p][:need]
		} else {
			planes[p] = make([]byte, need)
		}
	}
	for i, v := range values {
		bits := math.Float64bits(v)
		planes[0][2*i] = byte(bits >> 56)
		planes[0][2*i+1] = byte(bits >> 48)
		planes[1][i] = byte(bits >> 40)
		planes[2][i] = byte(bits >> 32)
		planes[3][i] = byte(bits >> 24)
		planes[4][i] = byte(bits >> 16)
		planes[5][i] = byte(bits >> 8)
		planes[6][i] = byte(bits)
	}
}

// SplitScratch holds reusable plane buffers for Split, so per-unit
// splits in a build loop stop allocating seven fresh slices each time.
// A scratch is single-owner (not safe for concurrent use); builders
// keep one per worker.
type SplitScratch struct {
	planes [NumPlanes][]byte
}

// Split is Split reusing the scratch's buffers. The returned planes
// alias the scratch and are valid only until its next Split call;
// callers must copy (or compress) every plane they keep.
func (s *SplitScratch) Split(values []float64) [NumPlanes][]byte {
	splitInto(values, &s.planes)
	return s.planes
}

// FillPolicy selects how absent low-order bytes are synthesized during
// partial reassembly.
type FillPolicy int

// Fill policies: FillCentered is the paper's 0x7F/0xFF scheme;
// FillZero is the naive alternative kept for the accuracy ablation.
const (
	FillCentered FillPolicy = iota
	FillZero
)

// Assemble reconstructs values from the first PlanesForLevel(level)
// planes using the given fill policy. The planes slice may contain more
// planes than needed; extra planes are ignored. n is the value count.
func Assemble(planes [][]byte, level int, n int, fill FillPolicy, dst []float64) []float64 {
	checkLevel(level)
	need := PlanesForLevel(level)
	if len(planes) < need {
		panic(fmt.Sprintf("plod: level %d needs %d planes, got %d", level, need, len(planes)))
	}
	if len(planes[0]) < 2*n {
		panic(fmt.Sprintf("plod: plane 0 has %d bytes, need %d", len(planes[0]), 2*n))
	}
	for p := 1; p < need; p++ {
		if len(planes[p]) < n {
			panic(fmt.Sprintf("plod: plane %d has %d bytes, need %d", p, len(planes[p]), n))
		}
	}
	// Precompute the dummy tail for the absent bytes.
	var tail uint64
	if fill == FillCentered && level < MaxLevel {
		absent := 8 - BytesPerValue(level)
		// First absent byte FillByteFirst, remaining FillByteRest.
		tail = uint64(FillByteFirst)
		for j := 1; j < absent; j++ {
			tail = tail<<8 | uint64(FillByteRest)
		}
		// Shift into the low `absent` bytes (already there).
	}
	for i := 0; i < n; i++ {
		bits := uint64(planes[0][2*i])<<56 | uint64(planes[0][2*i+1])<<48
		shift := uint(40)
		for p := 1; p < need; p++ {
			bits |= uint64(planes[p][i]) << shift
			shift -= 8
		}
		bits |= tail
		dst = append(dst, math.Float64frombits(bits))
	}
	return dst
}

// AssembleFull reconstructs exact values from all seven planes.
func AssembleFull(planes [][]byte, n int, dst []float64) []float64 {
	return Assemble(planes, MaxLevel, n, FillCentered, dst)
}

// RelErrorBound returns the worst-case relative error magnitude of a
// level-L reconstruction for normal (non-subnormal, non-zero) values.
// Truncating to k = BytesPerValue(L) bytes keeps 8k-12 fraction bits;
// centered fill halves the truncation interval.
func RelErrorBound(level int, fill FillPolicy) float64 {
	checkLevel(level)
	if level == MaxLevel {
		return 0
	}
	fracBits := 8*BytesPerValue(level) - 12 // minus sign(1) and exponent(11)
	interval := math.Pow(2, float64(-fracBits))
	if fill == FillCentered {
		return interval / 2
	}
	return interval
}
