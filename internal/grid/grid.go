// Package grid provides N-dimensional grid geometry for MLOC: shapes,
// hyperslab regions, row-major linearization, and the chunk
// decomposition every layout level operates on. Chunks are the paper's
// "blocks": fixed-size axis-aligned tiles of the variable's grid that
// form the unit of Hilbert-curve ordering, binning membership, and I/O.
package grid

import (
	"fmt"
	"strconv"
	"strings"
)

// Shape is the extent of a grid in each dimension.
type Shape []int

// Validate reports an error when any extent is non-positive or the
// total element count overflows int64.
func (s Shape) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("grid: empty shape")
	}
	total := int64(1)
	for i, n := range s {
		if n <= 0 {
			return fmt.Errorf("grid: dimension %d has non-positive extent %d", i, n)
		}
		total *= int64(n)
		if total < 0 {
			return fmt.Errorf("grid: shape %v overflows int64 elements", []int(s))
		}
	}
	return nil
}

// ParseShape parses a "64x64"-style dimension list (x, X or a comma
// separates extents) into a valid shape.
func ParseShape(s string) (Shape, error) {
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == 'x' || r == 'X' || r == ',' })
	shape := make(Shape, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("grid: bad shape component %q", p)
		}
		shape = append(shape, n)
	}
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	return shape, nil
}

// Dims returns the number of dimensions.
func (s Shape) Dims() int { return len(s) }

// Elems returns the total number of grid points.
func (s Shape) Elems() int64 {
	n := int64(1)
	for _, d := range s {
		n *= int64(d)
	}
	return n
}

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// Equal reports whether two shapes are identical.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the shape as "a×b×c".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "×")
}

// Linear converts multi-dimensional coordinates to the row-major linear
// index (dimension 0 slowest-varying).
func (s Shape) Linear(coords []int) int64 {
	if len(coords) != len(s) {
		panic(fmt.Sprintf("grid: %d coords for %d-d shape", len(coords), len(s)))
	}
	var idx int64
	for d, c := range coords {
		if c < 0 || c >= s[d] {
			panic(fmt.Sprintf("grid: coordinate %d = %d out of [0,%d)", d, c, s[d]))
		}
		idx = idx*int64(s[d]) + int64(c)
	}
	return idx
}

// Coords inverts Linear, appending into dst.
func (s Shape) Coords(idx int64, dst []int) []int {
	if idx < 0 || idx >= s.Elems() {
		panic(fmt.Sprintf("grid: linear index %d out of [0,%d)", idx, s.Elems()))
	}
	start := len(dst)
	dst = append(dst, make([]int, len(s))...)
	for d := len(s) - 1; d >= 0; d-- {
		dst[start+d] = int(idx % int64(s[d]))
		idx /= int64(s[d])
	}
	return dst
}

// Region is a half-open axis-aligned hyperslab [Lo[d], Hi[d]) per
// dimension — the spatial-constraint (SC) primitive of MLOC queries.
type Region struct {
	Lo, Hi []int
}

// NewRegion builds a region and validates lo <= hi elementwise.
func NewRegion(lo, hi []int) (Region, error) {
	if len(lo) != len(hi) {
		return Region{}, fmt.Errorf("grid: region bounds arity mismatch %d vs %d", len(lo), len(hi))
	}
	for d := range lo {
		if lo[d] > hi[d] {
			return Region{}, fmt.Errorf("grid: region dimension %d inverted: [%d,%d)", d, lo[d], hi[d])
		}
	}
	return Region{Lo: append([]int(nil), lo...), Hi: append([]int(nil), hi...)}, nil
}

// FullRegion covers the entire shape.
func FullRegion(s Shape) Region {
	lo := make([]int, len(s))
	hi := make([]int, len(s))
	copy(hi, s)
	return Region{Lo: lo, Hi: hi}
}

// Dims returns the region's dimensionality.
func (r Region) Dims() int { return len(r.Lo) }

// Elems returns the number of grid points inside the region.
func (r Region) Elems() int64 {
	n := int64(1)
	for d := range r.Lo {
		w := int64(r.Hi[d] - r.Lo[d])
		if w <= 0 {
			return 0
		}
		n *= w
	}
	return n
}

// Empty reports whether the region contains no points.
func (r Region) Empty() bool { return r.Elems() == 0 }

// Contains reports whether the point lies inside the region.
func (r Region) Contains(coords []int) bool {
	if len(coords) != len(r.Lo) {
		return false
	}
	for d, c := range coords {
		if c < r.Lo[d] || c >= r.Hi[d] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of two regions; ok is false when they
// are disjoint.
func (r Region) Intersect(o Region) (Region, bool) {
	if len(r.Lo) != len(o.Lo) {
		panic("grid: intersecting regions of different dimensionality")
	}
	out := Region{Lo: make([]int, len(r.Lo)), Hi: make([]int, len(r.Lo))}
	for d := range r.Lo {
		lo := r.Lo[d]
		if o.Lo[d] > lo {
			lo = o.Lo[d]
		}
		hi := r.Hi[d]
		if o.Hi[d] < hi {
			hi = o.Hi[d]
		}
		if lo >= hi {
			return Region{}, false
		}
		out.Lo[d] = lo
		out.Hi[d] = hi
	}
	return out, true
}

// Clip bounds the region to the shape.
func (r Region) Clip(s Shape) Region {
	full := FullRegion(s)
	out, ok := r.Intersect(full)
	if !ok {
		// Return a canonical empty region at the origin.
		return Region{Lo: make([]int, len(s)), Hi: make([]int, len(s))}
	}
	return out
}

// String renders the region as "[a,b)×[c,d)".
func (r Region) String() string {
	parts := make([]string, len(r.Lo))
	for d := range r.Lo {
		parts[d] = fmt.Sprintf("[%d,%d)", r.Lo[d], r.Hi[d])
	}
	return strings.Join(parts, "×")
}

// Each calls fn for every point in the region in row-major order,
// reusing a single coordinate buffer. fn must not retain coords.
func (r Region) Each(fn func(coords []int)) {
	if r.Empty() {
		return
	}
	coords := append([]int(nil), r.Lo...)
	for {
		fn(coords)
		d := len(coords) - 1
		for d >= 0 {
			coords[d]++
			if coords[d] < r.Hi[d] {
				break
			}
			coords[d] = r.Lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}
