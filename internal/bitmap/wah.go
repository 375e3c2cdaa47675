package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// WAH is a Word-Aligned Hybrid compressed bitmap over 31-bit groups,
// following the scheme FastBit uses (Wu et al.). Each 32-bit word is
// either a literal (MSB=0, 31 payload bits) or a fill (MSB=1, next bit
// is the fill value, low 30 bits count how many 31-bit groups the fill
// spans).
//
// WAH compresses the long runs of 0s that binned bitmap indices are
// mostly made of, which is what makes the FastBit baseline's index size
// realistic (Table I).
type WAH struct {
	n     int64 // logical bit length
	words []uint32
}

const (
	wahGroupBits = 31
	wahFillFlag  = uint32(1) << 31
	wahFillValue = uint32(1) << 30
	wahMaxCount  = (uint32(1) << 30) - 1
)

// Compress converts an uncompressed bitmap to WAH form. Groups are
// extracted 31 bits at a time directly from the word array.
func Compress(b *Bitmap) *WAH {
	w := &WAH{n: b.n}
	nGroups := (b.n + wahGroupBits - 1) / wahGroupBits
	for g := int64(0); g < nGroups; g++ {
		start := g * wahGroupBits
		n := int64(wahGroupBits)
		if start+n > b.n {
			n = b.n - start
		}
		w.appendGroup(extractBits(b.words, start, n))
	}
	return w
}

// extractBits reads n (<=31) bits starting at bit offset start from the
// word array, LSB-first.
func extractBits(words []uint64, start, n int64) uint32 {
	wi := start >> 6
	off := uint(start & 63)
	v := words[wi] >> off
	if off+uint(n) > 64 && int(wi+1) < len(words) {
		v |= words[wi+1] << (64 - off)
	}
	return uint32(v & (1<<uint(n) - 1))
}

// appendGroup adds one 31-bit literal group, merging into fills when
// possible.
func (w *WAH) appendGroup(g uint32) {
	allZero := g == 0
	allOne := g == (1<<wahGroupBits)-1
	if (allZero || allOne) && len(w.words) > 0 {
		last := w.words[len(w.words)-1]
		if last&wahFillFlag != 0 {
			fillOne := last&wahFillValue != 0
			count := last & wahMaxCount
			if fillOne == allOne && count < wahMaxCount {
				w.words[len(w.words)-1] = last + 1
				return
			}
		} else if (last == 0 && allZero) || (last == (1<<wahGroupBits)-1 && allOne) {
			// Merge previous literal with this group into a fill of 2.
			f := wahFillFlag | 2
			if allOne {
				f |= wahFillValue
			}
			w.words[len(w.words)-1] = f
			return
		}
	}
	if allZero || allOne {
		f := wahFillFlag | 1
		if allOne {
			f |= wahFillValue
		}
		w.words = append(w.words, f)
		return
	}
	w.words = append(w.words, g)
}

// Len returns the logical bit length.
func (w *WAH) Len() int64 { return w.n }

// SizeBytes returns the compressed representation size, including the
// header stored by MarshalBinary. This is what the storage-overhead
// experiment (Table I) accounts.
func (w *WAH) SizeBytes() int64 { return 8 + 4 + int64(4*len(w.words)) }

// Decompress expands back to an uncompressed bitmap.
func (w *WAH) Decompress() *Bitmap {
	b := New(w.n)
	var pos int64
	for _, word := range w.words {
		if word&wahFillFlag != 0 {
			count := int64(word & wahMaxCount)
			if word&wahFillValue != 0 {
				for g := int64(0); g < count; g++ {
					for j := 0; j < wahGroupBits; j++ {
						if pos >= w.n {
							return b
						}
						b.Set(pos)
						pos++
					}
				}
			} else {
				pos += count * wahGroupBits
				if pos > w.n {
					pos = w.n
				}
			}
			continue
		}
		for j := 0; j < wahGroupBits; j++ {
			if pos >= w.n {
				return b
			}
			if word&(1<<uint(j)) != 0 {
				b.Set(pos)
			}
			pos++
		}
	}
	return b
}

// Or returns the union of two WAH bitmaps of identical length. The
// operation decompresses group-at-a-time without materializing full
// bitmaps, mirroring how FastBit evaluates multi-bin range predicates.
func (w *WAH) Or(o *WAH) *WAH {
	return w.binop(o, func(a, b uint32) uint32 { return a | b })
}

func (w *WAH) binop(o *WAH, op func(a, b uint32) uint32) *WAH {
	if w.n != o.n {
		panic(fmt.Sprintf("bitmap: WAH length mismatch %d vs %d", w.n, o.n))
	}
	out := &WAH{n: w.n}
	ai, bi := newWahIter(w), newWahIter(o)
	for ai.valid() && bi.valid() {
		out.appendGroup(op(ai.group(), bi.group()))
		ai.next()
		bi.next()
	}
	return out
}

// WAHBits walks the set bits of a WAH bitmap in ascending order without
// decompressing it and without allocating: one-fills are emitted as
// index runs, literals by trailing-zero stripping. Use as
//
//	it := w.Bits()
//	for i, ok := it.Next(); ok; i, ok = it.Next() { ... }
type WAHBits struct {
	words           []uint32
	n               int64
	wi              int
	pos             int64 // logical bit offset of the next unloaded group
	lit             uint32
	litBase         int64
	runNext, runEnd int64
}

// Bits returns an iterator over the set bits. The returned value is
// self-contained; copying it forks the iteration state.
func (w *WAH) Bits() WAHBits {
	return WAHBits{words: w.words, n: w.n}
}

// Next returns the next set bit index, or ok=false when exhausted.
func (it *WAHBits) Next() (int64, bool) {
	for {
		if it.runNext < it.runEnd {
			i := it.runNext
			it.runNext++
			return i, true
		}
		if it.lit != 0 {
			t := bits.TrailingZeros32(it.lit)
			it.lit &= it.lit - 1
			if i := it.litBase + int64(t); i < it.n {
				return i, true
			}
			// Padding bit past n in the final group; any further set
			// bits in this literal are also padding.
			it.lit = 0
			continue
		}
		if it.wi >= len(it.words) {
			return -1, false
		}
		word := it.words[it.wi]
		it.wi++
		if word&wahFillFlag != 0 {
			span := int64(word&wahMaxCount) * wahGroupBits
			if word&wahFillValue != 0 {
				it.runNext = it.pos
				it.runEnd = it.pos + span
				if it.runEnd > it.n {
					it.runEnd = it.n
				}
			}
			it.pos += span
		} else {
			it.lit = word
			it.litBase = it.pos
			it.pos += wahGroupBits
		}
	}
}

// wahIter walks a WAH word stream one 31-bit group at a time.
type wahIter struct {
	words []uint32
	wi    int
	// remaining groups in the current fill word (0 when on a literal)
	fillLeft uint32
	fillVal  uint32
}

func newWahIter(w *WAH) *wahIter {
	it := &wahIter{words: w.words}
	it.load()
	return it
}

func (it *wahIter) load() {
	if it.wi >= len(it.words) {
		return
	}
	word := it.words[it.wi]
	if word&wahFillFlag != 0 {
		it.fillLeft = word & wahMaxCount
		if word&wahFillValue != 0 {
			it.fillVal = (1 << wahGroupBits) - 1
		} else {
			it.fillVal = 0
		}
	} else {
		it.fillLeft = 0
	}
}

func (it *wahIter) valid() bool { return it.wi < len(it.words) }

func (it *wahIter) group() uint32 {
	if it.fillLeft > 0 {
		return it.fillVal
	}
	return it.words[it.wi]
}

func (it *wahIter) next() {
	if it.fillLeft > 1 {
		it.fillLeft--
		return
	}
	it.wi++
	it.load()
}

// MarshalBinary serializes: 8-byte bit length, 4-byte word count, words.
func (w *WAH) MarshalBinary() ([]byte, error) {
	out := make([]byte, 12+4*len(w.words))
	binary.LittleEndian.PutUint64(out, uint64(w.n))
	binary.LittleEndian.PutUint32(out[8:], uint32(len(w.words)))
	for i, word := range w.words {
		binary.LittleEndian.PutUint32(out[12+4*i:], word)
	}
	return out, nil
}

// UnmarshalBinary deserializes a WAH bitmap from MarshalBinary output.
func (w *WAH) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("bitmap: truncated WAH header (%d bytes)", len(data))
	}
	n := int64(binary.LittleEndian.Uint64(data))
	nw := int(binary.LittleEndian.Uint32(data[8:]))
	if len(data) != 12+4*nw {
		return fmt.Errorf("bitmap: want %d WAH payload bytes, got %d", 4*nw, len(data)-12)
	}
	w.n = n
	w.words = make([]uint32, nw)
	for i := range w.words {
		w.words[i] = binary.LittleEndian.Uint32(data[12+4*i:])
	}
	return nil
}
