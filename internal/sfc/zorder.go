package sfc

import "fmt"

// ZOrder is a Morton (Z-order) curve over dims dimensions with 2^order
// points per side. It serves as the comparison baseline for the curve
// ablation experiment: Z-order is cheaper to compute than Hilbert but
// has weaker locality across quadrant boundaries.
type ZOrder struct {
	dims  int
	order uint
}

// NewZOrder constructs a Z-order curve; constraints match NewHilbert.
func NewZOrder(dims int, order uint) (*ZOrder, error) {
	if dims < 1 {
		return nil, fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	}
	if order < 1 || order > 32 {
		return nil, fmt.Errorf("sfc: order must be in [1,32], got %d", order)
	}
	if uint(dims)*order > 64 {
		return nil, fmt.Errorf("sfc: dims*order = %d exceeds 64 bits", uint(dims)*order)
	}
	return &ZOrder{dims: dims, order: order}, nil
}

// Dims returns the dimensionality of the curve.
func (z *ZOrder) Dims() int { return z.dims }

// Index interleaves the coordinate bits into a Morton code. Dimension 0
// provides the most significant bit within each bit plane, matching the
// Hilbert implementation's convention.
func (z *ZOrder) Index(coords []uint32) uint64 {
	if len(coords) != z.dims {
		panic(fmt.Sprintf("sfc: ZOrder curve has %d dims, got %d coords", z.dims, len(coords)))
	}
	var d uint64
	for b := int(z.order) - 1; b >= 0; b-- {
		for i := 0; i < z.dims; i++ {
			d = (d << 1) | uint64((coords[i]>>uint(b))&1)
		}
	}
	return d
}

// Coords inverts Index, appending into dst.
func (z *ZOrder) Coords(index uint64, dst []uint32) []uint32 {
	x := make([]uint32, z.dims)
	shift := uint(z.dims)*z.order - 1
	for b := int(z.order) - 1; b >= 0; b-- {
		for i := 0; i < z.dims; i++ {
			bit := (index >> shift) & 1
			x[i] |= uint32(bit) << uint(b)
			if shift > 0 {
				shift--
			}
		}
	}
	return append(dst, x...)
}

// RowMajor is the trivial row-major linearization, the "no curve"
// baseline in layout ablations.
type RowMajor struct {
	dims  int
	order uint
}

// NewRowMajor constructs a row-major order; constraints match NewHilbert.
func NewRowMajor(dims int, order uint) (*RowMajor, error) {
	if dims < 1 {
		return nil, fmt.Errorf("sfc: dims must be >= 1, got %d", dims)
	}
	if order < 1 || order > 32 {
		return nil, fmt.Errorf("sfc: order must be in [1,32], got %d", order)
	}
	if uint(dims)*order > 64 {
		return nil, fmt.Errorf("sfc: dims*order = %d exceeds 64 bits", uint(dims)*order)
	}
	return &RowMajor{dims: dims, order: order}, nil
}

// Dims returns the dimensionality of the curve.
func (r *RowMajor) Dims() int { return r.dims }

// Index computes the row-major linear index (dimension 0 slowest).
func (r *RowMajor) Index(coords []uint32) uint64 {
	if len(coords) != r.dims {
		panic(fmt.Sprintf("sfc: RowMajor curve has %d dims, got %d coords", r.dims, len(coords)))
	}
	side := uint64(1) << r.order
	var d uint64
	for i := 0; i < r.dims; i++ {
		d = d*side + uint64(coords[i])
	}
	return d
}

// Coords inverts Index, appending into dst.
func (r *RowMajor) Coords(index uint64, dst []uint32) []uint32 {
	side := uint64(1) << r.order
	x := make([]uint32, r.dims)
	for i := r.dims - 1; i >= 0; i-- {
		x[i] = uint32(index % side)
		index /= side
	}
	return append(dst, x...)
}

// CurveKind names a curve family for configuration surfaces.
type CurveKind string

// Supported curve kinds.
const (
	CurveHilbert  CurveKind = "hilbert"
	CurveZOrder   CurveKind = "zorder"
	CurveRowMajor CurveKind = "rowmajor"
)

// NewCurve builds a curve of the named kind.
func NewCurve(kind CurveKind, dims int, order uint) (Curve, error) {
	switch kind {
	case CurveHilbert:
		return NewHilbert(dims, order)
	case CurveZOrder:
		return NewZOrder(dims, order)
	case CurveRowMajor:
		return NewRowMajor(dims, order)
	default:
		return nil, fmt.Errorf("sfc: unknown curve kind %q", kind)
	}
}
