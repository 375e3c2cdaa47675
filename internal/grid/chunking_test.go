package grid

import (
	"testing"
	"testing/quick"
)

func TestNewChunkingValidation(t *testing.T) {
	if _, err := NewChunking(Shape{4, 4}, []int{2}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := NewChunking(Shape{4, 4}, []int{0, 2}); err == nil {
		t.Error("zero chunk size accepted")
	}
	if _, err := NewChunking(Shape{0, 4}, []int{2, 2}); err == nil {
		t.Error("invalid shape accepted")
	}
}

func TestChunkingGridShape(t *testing.T) {
	c, err := NewChunking(Shape{10, 8}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !c.GridShape().Equal(Shape{3, 2}) {
		t.Errorf("GridShape = %v, want 3×2", c.GridShape())
	}
	if c.NumChunks() != 6 {
		t.Errorf("NumChunks = %d, want 6", c.NumChunks())
	}
	if n := c.ChunkRegionByID(0).Elems(); n != 16 {
		t.Errorf("full chunk has %d elements, want 16", n)
	}
}

func TestChunkRegionEdges(t *testing.T) {
	c, _ := NewChunking(Shape{10, 8}, []int{4, 4})
	// Chunk (2,1) covers rows [8,10), cols [4,8): an edge chunk.
	r := c.ChunkRegionByID(c.GridShape().Linear([]int{2, 1}))
	if r.Lo[0] != 8 || r.Hi[0] != 10 || r.Lo[1] != 4 || r.Hi[1] != 8 {
		t.Errorf("edge chunk region = %v", r)
	}
	if c.ChunkRegionByID(c.GridShape().Linear([]int{2, 1})).Elems() != 8 {
		t.Error("edge chunk should have 8 elements")
	}
}

func TestChunkRegionsPartition(t *testing.T) {
	// Every grid point must be in exactly one chunk region.
	shape := Shape{7, 5, 3}
	c, _ := NewChunking(shape, []int{3, 2, 2})
	count := make(map[int64]int)
	for id := int64(0); id < c.NumChunks(); id++ {
		c.ChunkRegionByID(id).Each(func(coords []int) {
			count[shape.Linear(coords)]++
		})
	}
	if int64(len(count)) != shape.Elems() {
		t.Fatalf("chunks cover %d points, want %d", len(count), shape.Elems())
	}
	for lin, n := range count {
		if n != 1 {
			t.Fatalf("point %d covered %d times", lin, n)
		}
	}
}

func TestChunkIDOfMatchesRegion(t *testing.T) {
	shape := Shape{9, 9}
	c, _ := NewChunking(shape, []int{4, 4})
	FullRegion(shape).Each(func(coords []int) {
		id := c.ChunkIDOf(coords)
		if !c.ChunkRegionByID(id).Contains(coords) {
			t.Fatalf("point %v assigned to chunk %d whose region %v excludes it",
				coords, id, c.ChunkRegionByID(id))
		}
	})
}

func TestOverlappingChunks(t *testing.T) {
	c, _ := NewChunking(Shape{8, 8}, []int{4, 4}) // 2x2 chunks
	r, _ := NewRegion([]int{3, 3}, []int{5, 5})   // straddles all 4
	ids := c.OverlappingChunks(r)
	if len(ids) != 4 {
		t.Fatalf("OverlappingChunks = %v, want all 4", ids)
	}
	single, _ := NewRegion([]int{0, 0}, []int{2, 2})
	if ids := c.OverlappingChunks(single); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("OverlappingChunks(corner) = %v", ids)
	}
	empty, _ := NewRegion([]int{8, 8}, []int{9, 9})
	if ids := c.OverlappingChunks(empty); ids != nil {
		t.Fatalf("OverlappingChunks(outside) = %v, want nil", ids)
	}
}

func TestOverlappingChunksExact(t *testing.T) {
	// Brute-force cross-check: a chunk overlaps r iff some point of the
	// chunk is in r.
	c, _ := NewChunking(Shape{10, 7}, []int{3, 2})
	r, _ := NewRegion([]int{2, 1}, []int{8, 6})
	got := map[int64]bool{}
	for _, id := range c.OverlappingChunks(r) {
		got[id] = true
	}
	for id := int64(0); id < c.NumChunks(); id++ {
		_, overlap := c.ChunkRegionByID(id).Intersect(r)
		if overlap != got[id] {
			t.Errorf("chunk %d: overlap=%v, listed=%v", id, overlap, got[id])
		}
	}
}

func TestExtractScatterChunkRoundtrip(t *testing.T) {
	shape := Shape{6, 5}
	c, _ := NewChunking(shape, []int{4, 3})
	data := make([]float64, shape.Elems())
	for i := range data {
		data[i] = float64(i) * 1.5
	}
	out := make([]float64, len(data))
	for id := int64(0); id < c.NumChunks(); id++ {
		chunk := c.ExtractChunk(data, id, nil)
		if int64(len(chunk)) != c.ChunkRegionByID(id).Elems() {
			t.Fatalf("chunk %d has %d elems, want %d", id, len(chunk), c.ChunkRegionByID(id).Elems())
		}
		c.ScatterChunk(out, id, chunk)
	}
	for i := range data {
		if data[i] != out[i] {
			t.Fatalf("roundtrip mismatch at %d: %v != %v", i, out[i], data[i])
		}
	}
}

func TestExtractChunkPanicsOnBadData(t *testing.T) {
	c, _ := NewChunking(Shape{4, 4}, []int{2, 2})
	assertPanics(t, func() { c.ExtractChunk(make([]float64, 3), 0, nil) })
	assertPanics(t, func() { c.ScatterChunk(make([]float64, 16), 0, make([]float64, 3)) })
	assertPanics(t, func() { c.ChunkRegionByID(c.NumChunks()) })
	assertPanics(t, func() { c.ChunkOf([]int{4, 0}, nil) })
}

func TestChunkingQuickPointMembership(t *testing.T) {
	c, _ := NewChunking(Shape{31, 17}, []int{5, 4})
	f := func(a, b uint16) bool {
		x := int(a) % 31
		y := int(b) % 17
		id := c.ChunkIDOf([]int{x, y})
		return id >= 0 && id < c.NumChunks() && c.ChunkRegionByID(id).Contains([]int{x, y})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkOverlappingChunks(b *testing.B) {
	c, _ := NewChunking(Shape{1024, 1024}, []int{32, 32})
	r, _ := NewRegion([]int{100, 100}, []int{600, 600})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.OverlappingChunks(r)
	}
}
