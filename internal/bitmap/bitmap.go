// Package bitmap implements plain and WAH-compressed bitmaps.
//
// MLOC uses bitmaps in two roles from the paper: (1) the light-weight
// spatial indices exchanged between MPI ranks during multi-variable
// queries (§III-D4), and (2) the from-scratch FastBit baseline, whose
// binned bitmap indices are Word-Aligned Hybrid (WAH) compressed.
package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Bitmap is a fixed-length uncompressed bitset.
type Bitmap struct {
	n     int64 // number of valid bits
	words []uint64
}

// New creates a bitmap of n bits, all zero.
func New(n int64) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative length %d", n))
	}
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int64 { return b.n }

// Set sets bit i to 1.
func (b *Bitmap) Set(i int64) {
	b.check(i)
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear sets bit i to 0.
func (b *Bitmap) Clear(i int64) {
	b.check(i)
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Get reports whether bit i is 1.
func (b *Bitmap) Get(i int64) bool {
	b.check(i)
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

func (b *Bitmap) check(i int64) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of [0,%d)", i, b.n))
	}
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int64 {
	var c int64
	for _, w := range b.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// And intersects o into b in place. Lengths must match.
func (b *Bitmap) And(o *Bitmap) {
	b.checkSame(o)
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or unions o into b in place. Lengths must match.
func (b *Bitmap) Or(o *Bitmap) {
	b.checkSame(o)
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// AndNot removes o's bits from b in place. Lengths must match.
func (b *Bitmap) AndNot(o *Bitmap) {
	b.checkSame(o)
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// AndCount returns Count(b AND o) without materializing the
// intersection — the planner's cardinality probes run this per candidate
// bin, so avoiding the Clone+And round trip matters.
func (b *Bitmap) AndCount(o *Bitmap) int64 {
	b.checkSame(o)
	var c int64
	for i, w := range b.words {
		c += int64(bits.OnesCount64(w & o.words[i]))
	}
	return c
}

// OrCount returns Count(b OR o) without materializing the union.
func (b *Bitmap) OrCount(o *Bitmap) int64 {
	b.checkSame(o)
	var c int64
	for i, w := range b.words {
		c += int64(bits.OnesCount64(w | o.words[i]))
	}
	return c
}

// NextSet returns the index of the first set bit at or after i, or -1
// when no set bit remains. It allocates nothing, so callers can walk
// set bits with `for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1)`
// without the closure overhead of Each or the slice of Indices.
func (b *Bitmap) NextSet(i int64) int64 {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := int(i >> 6)
	w := b.words[wi] >> uint(i&63)
	if w != 0 {
		return i + int64(bits.TrailingZeros64(w))
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return int64(wi)*64 + int64(bits.TrailingZeros64(b.words[wi]))
		}
	}
	return -1
}

// Not flips every bit in place.
func (b *Bitmap) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.maskTail()
}

// maskTail zeroes the padding bits past n in the last word so Count and
// iteration stay correct after Not.
func (b *Bitmap) maskTail() {
	if b.n%64 != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(b.n%64)) - 1
	}
}

func (b *Bitmap) checkSame(o *Bitmap) {
	if b.n != o.n {
		panic(fmt.Sprintf("bitmap: length mismatch %d vs %d", b.n, o.n))
	}
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{n: b.n, words: append([]uint64(nil), b.words...)}
}

// Each calls fn with the index of every set bit in ascending order.
func (b *Bitmap) Each(fn func(i int64)) {
	for wi, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			fn(int64(wi)*64 + int64(t))
			w &= w - 1
		}
	}
}

// Indices returns the positions of all set bits.
func (b *Bitmap) Indices() []int64 {
	out := make([]int64, 0, b.Count())
	b.Each(func(i int64) { out = append(out, i) })
	return out
}

// Equal reports bit-for-bit equality.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.n != o.n {
		return false
	}
	for i := range b.words {
		if b.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Reset clears every bit, keeping the length and the storage.
func (b *Bitmap) Reset() { clear(b.words) }

// Words exposes the raw word slice for serialization; callers must not
// mutate it.
func (b *Bitmap) Words() []uint64 { return b.words }

// MarshalBinary serializes the bitmap: 8-byte bit length then words.
func (b *Bitmap) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8+8*len(b.words))
	binary.LittleEndian.PutUint64(out, uint64(b.n))
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(out[8+8*i:], w)
	}
	return out, nil
}

// UnmarshalBinary deserializes a bitmap produced by MarshalBinary.
func (b *Bitmap) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("bitmap: truncated header (%d bytes)", len(data))
	}
	n := int64(binary.LittleEndian.Uint64(data))
	nw := int((n + 63) / 64)
	if len(data) != 8+8*nw {
		return fmt.Errorf("bitmap: want %d payload bytes for %d bits, got %d", 8*nw, n, len(data)-8)
	}
	b.n = n
	b.words = make([]uint64, nw)
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	return nil
}
