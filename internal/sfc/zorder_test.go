package sfc

import (
	"testing"
	"testing/quick"
)

func TestZOrderRoundtrip(t *testing.T) {
	z := MustZOrder(2, 4)
	n := uint64(1) << 8
	seen := make(map[string]bool)
	for d := uint64(0); d < n; d++ {
		c := z.Coords(d, nil)
		if seen[coordKey(c)] {
			t.Fatalf("coords %v repeated", c)
		}
		seen[coordKey(c)] = true
		if back := z.Index(c); back != d {
			t.Fatalf("roundtrip %d -> %v -> %d", d, c, back)
		}
	}
}

func TestZOrderKnownValues(t *testing.T) {
	// For a 2-D Morton code with dim 0 as the high bit of each plane:
	// (x=0,y=0)->0, (0,1)->1, (1,0)->2, (1,1)->3 at order 1.
	z := MustZOrder(2, 1)
	cases := []struct {
		coords []uint32
		want   uint64
	}{
		{[]uint32{0, 0}, 0},
		{[]uint32{0, 1}, 1},
		{[]uint32{1, 0}, 2},
		{[]uint32{1, 1}, 3},
	}
	for _, c := range cases {
		if got := z.Index(c.coords); got != c.want {
			t.Errorf("Index(%v) = %d, want %d", c.coords, got, c.want)
		}
	}
}

func TestZOrderRoundtripQuick(t *testing.T) {
	z := MustZOrder(3, 12)
	f := func(a, b, c uint32) bool {
		coords := []uint32{a % 4096, b % 4096, c % 4096}
		back := z.Coords(z.Index(coords), nil)
		return back[0] == coords[0] && back[1] == coords[1] && back[2] == coords[2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRowMajorRoundtrip(t *testing.T) {
	r := MustRowMajor(3, 4)
	for d := uint64(0); d < 1<<12; d++ {
		c := r.Coords(d, nil)
		if back := r.Index(c); back != d {
			t.Fatalf("roundtrip %d -> %v -> %d", d, c, back)
		}
	}
}

func TestRowMajorIsRowMajor(t *testing.T) {
	r := MustRowMajor(2, 2)
	// side 4: index = x*4 + y
	if got := r.Index([]uint32{2, 3}); got != 11 {
		t.Fatalf("Index([2,3]) = %d, want 11", got)
	}
	if got := r.Coords(11, nil); got[0] != 2 || got[1] != 3 {
		t.Fatalf("Coords(11) = %v, want [2 3]", got)
	}
}

func TestNewCurveKinds(t *testing.T) {
	for _, kind := range []CurveKind{CurveHilbert, CurveZOrder, CurveRowMajor} {
		c, err := NewCurve(kind, 2, 4)
		if err != nil {
			t.Fatalf("NewCurve(%s): %v", kind, err)
		}
		if c.Dims() != 2 {
			t.Fatalf("NewCurve(%s): %d dims, want 2", kind, c.Dims())
		}
		// Order 4: the 16×16 lattice maps one to one onto [0, 256).
		seen := make(map[uint64]bool, 256)
		for x := uint32(0); x < 16; x++ {
			for y := uint32(0); y < 16; y++ {
				i := c.Index([]uint32{x, y})
				if i >= 256 || seen[i] {
					t.Fatalf("NewCurve(%s): Index(%d,%d) = %d repeats or leaves [0,256)", kind, x, y, i)
				}
				seen[i] = true
			}
		}
	}
	if _, err := NewCurve("peano", 2, 4); err == nil {
		t.Fatal("expected error for unknown curve kind")
	}
}

func TestHilbertBeatsZOrderOnRuns(t *testing.T) {
	// The motivating locality property: averaged over many random
	// square sub-regions, Hilbert ordering yields no more contiguous
	// runs (i.e. seeks) than Z-order. This is the paper's stated reason
	// for choosing HSFC (§III-B2).
	h := MustHilbert(2, 6)
	z := MustZOrder(2, 6)
	side := uint32(64)
	var hRuns, zRuns int
	rng := uint32(12345)
	next := func(mod uint32) uint32 {
		rng = rng*1664525 + 1013904223
		return (rng >> 8) % mod
	}
	for i := 0; i < 50; i++ {
		w := next(16) + 4
		x0 := next(side - w)
		y0 := next(side - w)
		lo := []uint32{x0, y0}
		hi := []uint32{x0 + w - 1, y0 + w - 1}
		hRuns += RegionRuns(h, lo, hi)
		zRuns += RegionRuns(z, lo, hi)
	}
	if hRuns > zRuns {
		t.Errorf("Hilbert produced more runs than Z-order over random squares: %d > %d", hRuns, zRuns)
	}
}

func TestRegionRunsFullGridIsOne(t *testing.T) {
	// The whole grid is one contiguous run for any bijective curve.
	for _, c := range []Curve{MustHilbert(2, 3), MustZOrder(2, 3), MustRowMajor(2, 3)} {
		runs := RegionRuns(c, []uint32{0, 0}, []uint32{7, 7})
		if runs != 1 {
			t.Errorf("%T: full grid runs = %d, want 1", c, runs)
		}
	}
}

func TestRegionRunsEmptyRegion(t *testing.T) {
	h := MustHilbert(2, 3)
	if runs := RegionRuns(h, []uint32{5, 5}, []uint32{4, 4}); runs != 0 {
		t.Errorf("inverted region runs = %d, want 0", runs)
	}
}

func BenchmarkZOrderIndex3D(b *testing.B) {
	z := MustZOrder(3, 10)
	coords := []uint32{123, 456, 789}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = z.Index(coords)
	}
}

// MustZOrder is NewZOrder that panics on error.
func MustZOrder(dims int, order uint) *ZOrder {
	z, err := NewZOrder(dims, order)
	if err != nil {
		panic(err)
	}
	return z
}

// MustRowMajor is NewRowMajor that panics on error.
func MustRowMajor(dims int, order uint) *RowMajor {
	r, err := NewRowMajor(dims, order)
	if err != nil {
		panic(err)
	}
	return r
}
