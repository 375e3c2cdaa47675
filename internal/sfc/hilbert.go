// Package sfc implements space-filling curves used by MLOC to linearize
// multi-dimensional chunk grids with high spatial locality.
//
// The central export is the Hilbert space-filling curve (HSFC) in N
// dimensions, implemented with Skilling's transpose algorithm
// ("Programming the Hilbert curve", AIP 2004). A Z-order (Morton) curve
// and a plain row-major order are provided as comparison baselines for
// the layout-ablation experiments, and a hierarchical HSFC supports the
// subset-based multi-resolution layout from the MLOC paper (§III-B3).
package sfc

import (
	"errors"
	"fmt"
)

// Curve linearizes N-dimensional lattice coordinates into a single
// index. All implementations in this package are bijections over the
// cube [0, 2^order)^dims, and each has a Coords method inverting Index.
type Curve interface {
	// Dims returns the number of dimensions the curve spans.
	Dims() int
	// Index maps lattice coordinates to the curve position.
	Index(coords []uint32) uint64
}

// Hilbert is an N-dimensional Hilbert curve of a given order.
// It is valid for dims*order <= 64 so positions fit in a uint64.
type Hilbert struct {
	dims  int
	order uint
}

// NewHilbert constructs a Hilbert curve over dims dimensions with
// 2^order points per side. It returns an error when the parameters
// cannot be represented in 64-bit indices.
func NewHilbert(dims int, order uint) (*Hilbert, error) {
	if dims < 1 {
		return nil, fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	}
	if order < 1 || order > 32 {
		return nil, fmt.Errorf("sfc: order must be in [1,32], got %d", order)
	}
	if uint(dims)*order > 64 {
		return nil, fmt.Errorf("sfc: dims*order = %d exceeds 64 bits", uint(dims)*order)
	}
	return &Hilbert{dims: dims, order: order}, nil
}

// MustHilbert is NewHilbert that panics on error, for static configs.
func MustHilbert(dims int, order uint) *Hilbert {
	h, err := NewHilbert(dims, order)
	if err != nil {
		panic(err)
	}
	return h
}

// Dims returns the dimensionality of the curve.
func (h *Hilbert) Dims() int { return h.dims }

// Order returns the bits per dimension.
func (h *Hilbert) Order() uint { return h.order }

// Length returns the total number of points on the curve.
func (h *Hilbert) Length() uint64 {
	bits := uint(h.dims) * h.order
	if bits == 64 {
		return ^uint64(0) // length 2^64 does not fit; callers treat as max
	}
	return 1 << bits
}

// Index maps coords (len == Dims, each < 2^order) to the Hilbert
// position. It panics when the coordinate slice has the wrong length or
// holds out-of-range values, because these indicate programmer error in
// layout code rather than recoverable conditions.
func (h *Hilbert) Index(coords []uint32) uint64 {
	h.checkCoords(coords)
	x := make([]uint32, h.dims)
	copy(x, coords)
	axesToTranspose(x, h.order)
	return interleaveTransposed(x, h.order)
}

// Coords inverts Index, appending the coordinates into dst.
func (h *Hilbert) Coords(index uint64, dst []uint32) []uint32 {
	x := deinterleaveTransposed(index, h.dims, h.order)
	transposeToAxes(x, h.order)
	return append(dst, x...)
}

func (h *Hilbert) checkCoords(coords []uint32) {
	if len(coords) != h.dims {
		panic(fmt.Sprintf("sfc: Hilbert curve has %d dims, got %d coords", h.dims, len(coords)))
	}
	max := uint32(1)<<h.order - 1
	if h.order == 32 {
		max = ^uint32(0)
	}
	for i, c := range coords {
		if c > max {
			panic(fmt.Sprintf("sfc: coordinate %d = %d out of range [0,%d]", i, c, max))
		}
	}
}

// axesToTranspose converts coordinates in place into the "transposed"
// Hilbert representation (Skilling 2004).
func axesToTranspose(x []uint32, order uint) {
	n := len(x)
	// Inverse undo excess work.
	for q := uint32(1) << (order - 1); q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	t := uint32(0)
	for q := uint32(1) << (order - 1); q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes converts the transposed representation back to plain
// coordinates in place.
func transposeToAxes(x []uint32, order uint) {
	n := len(x)
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	for q := uint32(2); q != uint32(1)<<order; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleaveTransposed packs the transposed coordinates into a single
// uint64 Hilbert index, most significant bit plane first.
func interleaveTransposed(x []uint32, order uint) uint64 {
	var d uint64
	for b := int(order) - 1; b >= 0; b-- {
		for i := 0; i < len(x); i++ {
			d = (d << 1) | uint64((x[i]>>uint(b))&1)
		}
	}
	return d
}

// deinterleaveTransposed unpacks a Hilbert index into transposed
// coordinates.
func deinterleaveTransposed(d uint64, dims int, order uint) []uint32 {
	x := make([]uint32, dims)
	shift := uint(dims)*order - 1
	for b := int(order) - 1; b >= 0; b-- {
		for i := 0; i < dims; i++ {
			bit := (d >> shift) & 1
			x[i] |= uint32(bit) << uint(b)
			if shift > 0 {
				shift--
			}
		}
	}
	return x
}

// ErrNotPowerOfTwo reports grids whose sides are not powers of two;
// curve layouts require padding such grids up to the next power of two.
var ErrNotPowerOfTwo = errors.New("sfc: grid side is not a power of two")

// OrderFor returns the minimal curve order whose side covers n points
// per dimension (i.e. smallest k with 2^k >= n).
func OrderFor(n uint64) uint {
	if n <= 1 {
		return 1
	}
	k := uint(0)
	for s := uint64(1); s < n; s <<= 1 {
		k++
	}
	return k
}
