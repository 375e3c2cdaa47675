// Package bitmap implements plain and WAH-compressed bitmaps.
//
// MLOC uses bitmaps in two roles from the paper: (1) the position set a
// multi-variable query selects and then fetches at (§III-D4), and (2)
// the from-scratch FastBit baseline, whose binned bitmap indices are
// Word-Aligned Hybrid (WAH) compressed (as are the vindex node bitmaps).
package bitmap

import (
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

// Or unions o into b in place. Lengths must match.
func (b *Bitmap) Or(o *Bitmap) {
	b.checkSame(o)
	for i := range b.words {
		b.words[i] |= o.words[i]
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
