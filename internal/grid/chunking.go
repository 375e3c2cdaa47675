package grid

import (
	"fmt"
	"slices"
)

// Chunking decomposes a grid into fixed-size axis-aligned chunks
// (the paper's "blocks"). Edge chunks may be smaller when the shape is
// not a multiple of the chunk size.
type Chunking struct {
	shape Shape
	size  []int // chunk extent per dimension
	grid  Shape // number of chunks per dimension
}

// NewChunking validates and constructs a chunk decomposition.
func NewChunking(shape Shape, chunkSize []int) (*Chunking, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	if len(chunkSize) != len(shape) {
		return nil, fmt.Errorf("grid: chunk size arity %d does not match shape arity %d",
			len(chunkSize), len(shape))
	}
	grid := make(Shape, len(shape))
	for d, cs := range chunkSize {
		if cs <= 0 {
			return nil, fmt.Errorf("grid: chunk dimension %d has non-positive size %d", d, cs)
		}
		grid[d] = (shape[d] + cs - 1) / cs
	}
	return &Chunking{
		shape: shape.Clone(),
		size:  append([]int(nil), chunkSize...),
		grid:  grid,
	}, nil
}

// Shape returns the underlying grid shape.
func (c *Chunking) Shape() Shape { return c.shape }

// ChunkSize returns the nominal chunk extent per dimension.
func (c *Chunking) ChunkSize() []int { return c.size }

// GridShape returns the number of chunks along each dimension.
func (c *Chunking) GridShape() Shape { return c.grid }

// NumChunks returns the total chunk count.
func (c *Chunking) NumChunks() int64 { return c.grid.Elems() }

// ChunkElems returns the nominal number of elements per full chunk.
func (c *Chunking) ChunkElems() int64 {
	n := int64(1)
	for _, s := range c.size {
		n *= int64(s)
	}
	return n
}

// ChunkRegion returns the grid region covered by the chunk with the
// given chunk coordinates (clipped to the shape for edge chunks).
func (c *Chunking) ChunkRegion(chunkCoords []int) Region {
	lo := make([]int, len(c.shape))
	hi := make([]int, len(c.shape))
	for d, cc := range chunkCoords {
		if cc < 0 || cc >= c.grid[d] {
			panic(fmt.Sprintf("grid: chunk coordinate %d = %d out of [0,%d)", d, cc, c.grid[d]))
		}
		lo[d] = cc * c.size[d]
		hi[d] = lo[d] + c.size[d]
		if hi[d] > c.shape[d] {
			hi[d] = c.shape[d]
		}
	}
	return Region{Lo: lo, Hi: hi}
}

// ChunkRegionByID returns the region of the chunk with the given linear
// (row-major) chunk id.
func (c *Chunking) ChunkRegionByID(id int64) Region {
	var reg Region
	c.ChunkRegionInto(id, &reg)
	return reg
}

// ChunkRegionInto is ChunkRegionByID into a caller-owned region: reg's
// Lo and Hi are overwritten, reusing their storage, so a loop over many
// chunks allocates nothing.
func (c *Chunking) ChunkRegionInto(id int64, reg *Region) {
	if id < 0 || id >= c.grid.Elems() {
		panic(fmt.Sprintf("grid: chunk id %d out of [0,%d)", id, c.grid.Elems()))
	}
	dims := len(c.shape)
	reg.Lo = slices.Grow(reg.Lo[:0], dims)[:dims]
	reg.Hi = slices.Grow(reg.Hi[:0], dims)[:dims]
	for d := dims - 1; d >= 0; d-- {
		cc := int(id % int64(c.grid[d]))
		id /= int64(c.grid[d])
		reg.Lo[d] = cc * c.size[d]
		reg.Hi[d] = min(reg.Lo[d]+c.size[d], c.shape[d])
	}
}

// ChunkOf returns the chunk coordinates containing the grid point.
func (c *Chunking) ChunkOf(coords []int, dst []int) []int {
	for d, x := range coords {
		if x < 0 || x >= c.shape[d] {
			panic(fmt.Sprintf("grid: point coordinate %d = %d out of [0,%d)", d, x, c.shape[d]))
		}
		dst = append(dst, x/c.size[d])
	}
	return dst
}

// ChunkIDOf returns the linear chunk id containing the grid point.
func (c *Chunking) ChunkIDOf(coords []int) int64 {
	cc := c.ChunkOf(coords, make([]int, 0, len(coords)))
	return c.grid.Linear(cc)
}

// OverlappingChunks returns the linear ids of every chunk whose region
// intersects r, in row-major chunk order.
func (c *Chunking) OverlappingChunks(r Region) []int64 {
	r = r.Clip(c.shape)
	if r.Empty() {
		return nil
	}
	cl := make([]int, len(c.shape))
	ch := make([]int, len(c.shape))
	for d := range c.shape {
		cl[d] = r.Lo[d] / c.size[d]
		ch[d] = (r.Hi[d]-1)/c.size[d] + 1
	}
	chunkRegion := Region{Lo: cl, Hi: ch}
	out := make([]int64, 0, chunkRegion.Elems())
	chunkRegion.Each(func(coords []int) {
		out = append(out, c.grid.Linear(coords))
	})
	return out
}

// OffsetInChunk returns the row-major offset of a grid point inside its
// chunk, along with the chunk's region. This is the intra-block index
// MLOC's light-weight index records.
func (c *Chunking) OffsetInChunk(coords []int) (int64, Region) {
	cc := c.ChunkOf(coords, make([]int, 0, len(coords)))
	reg := c.ChunkRegion(cc)
	var off int64
	for d := range coords {
		off = off*int64(reg.Hi[d]-reg.Lo[d]) + int64(coords[d]-reg.Lo[d])
	}
	return off, reg
}

// ElemsInChunk returns the actual element count of the chunk with the
// given linear id (smaller than ChunkElems for edge chunks).
func (c *Chunking) ElemsInChunk(id int64) int64 {
	return c.ChunkRegionByID(id).Elems()
}

// ExtractChunk copies the chunk's elements out of a row-major flat
// array of the whole grid, returning them in the chunk's own row-major
// order. data must have exactly Shape().Elems() elements.
func (c *Chunking) ExtractChunk(data []float64, id int64, dst []float64) []float64 {
	if int64(len(data)) != c.shape.Elems() {
		panic(fmt.Sprintf("grid: data length %d does not match shape %v", len(data), c.shape))
	}
	reg := c.ChunkRegionByID(id)
	reg.Each(func(coords []int) {
		dst = append(dst, data[c.shape.Linear(coords)])
	})
	return dst
}

// ScatterChunk writes a chunk's elements (in chunk row-major order)
// back into the flat grid array — the inverse of ExtractChunk.
func (c *Chunking) ScatterChunk(data []float64, id int64, chunk []float64) {
	reg := c.ChunkRegionByID(id)
	if int64(len(chunk)) != reg.Elems() {
		panic(fmt.Sprintf("grid: chunk length %d does not match region %v", len(chunk), reg))
	}
	i := 0
	reg.Each(func(coords []int) {
		data[c.shape.Linear(coords)] = chunk[i]
		i++
	})
}
