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

// GridShape returns the number of chunks along each dimension.
func (c *Chunking) GridShape() Shape { return c.grid }

// NumChunks returns the total chunk count.
func (c *Chunking) NumChunks() int64 { return c.grid.Elems() }

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
