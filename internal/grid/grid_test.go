package grid

import (
	"testing"
	"testing/quick"
)

func TestShapeValidate(t *testing.T) {
	cases := []struct {
		s  Shape
		ok bool
	}{
		{Shape{4, 4}, true},
		{Shape{1}, true},
		{Shape{1024, 1024, 1024}, true},
		{Shape{}, false},
		{Shape{0, 4}, false},
		{Shape{4, -1}, false},
	}
	for _, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%v) err=%v, want ok=%v", c.s, err, c.ok)
		}
	}
}

func TestShapeLinearRoundtrip(t *testing.T) {
	s := Shape{3, 5, 7}
	for i := int64(0); i < s.Elems(); i++ {
		c := s.Coords(i, nil)
		if back := s.Linear(c); back != i {
			t.Fatalf("roundtrip %d -> %v -> %d", i, c, back)
		}
	}
}

func TestShapeLinearRowMajorConvention(t *testing.T) {
	s := Shape{2, 3}
	// Row-major: (0,0)=0 (0,1)=1 (0,2)=2 (1,0)=3...
	if got := s.Linear([]int{1, 2}); got != 5 {
		t.Errorf("Linear([1,2]) = %d, want 5", got)
	}
}

func TestShapeLinearPanics(t *testing.T) {
	s := Shape{2, 3}
	assertPanics(t, func() { s.Linear([]int{1}) })
	assertPanics(t, func() { s.Linear([]int{2, 0}) })
	assertPanics(t, func() { s.Linear([]int{0, -1}) })
	assertPanics(t, func() { s.Coords(6, nil) })
	assertPanics(t, func() { s.Coords(-1, nil) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestShapeEqualClone(t *testing.T) {
	s := Shape{4, 5}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[0] = 9
	if s.Equal(c) || s[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if s.Equal(Shape{4}) || s.Equal(Shape{4, 6}) {
		t.Fatal("Equal false positives")
	}
}

func TestShapeString(t *testing.T) {
	if got := (Shape{2, 3, 4}).String(); got != "2×3×4" {
		t.Errorf("String() = %q", got)
	}
}

func TestNewRegionValidation(t *testing.T) {
	if _, err := NewRegion([]int{0, 0}, []int{4}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := NewRegion([]int{5}, []int{4}); err == nil {
		t.Error("inverted bounds accepted")
	}
	r, err := NewRegion([]int{1, 2}, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Elems() != 4 {
		t.Errorf("Elems() = %d, want 4", r.Elems())
	}
}

func TestRegionContains(t *testing.T) {
	r, _ := NewRegion([]int{1, 1}, []int{3, 3})
	if !r.Contains([]int{1, 2}) || !r.Contains([]int{2, 2}) {
		t.Error("interior points not contained")
	}
	if r.Contains([]int{3, 2}) || r.Contains([]int{0, 1}) {
		t.Error("exterior points contained (Hi is exclusive)")
	}
	if r.Contains([]int{1}) {
		t.Error("wrong-arity point contained")
	}
}

func TestRegionIntersect(t *testing.T) {
	a, _ := NewRegion([]int{0, 0}, []int{4, 4})
	b, _ := NewRegion([]int{2, 2}, []int{6, 6})
	got, ok := a.Intersect(b)
	if !ok || got.Lo[0] != 2 || got.Hi[0] != 4 || got.Elems() != 4 {
		t.Errorf("Intersect = %v ok=%v", got, ok)
	}
	c, _ := NewRegion([]int{4, 0}, []int{5, 4})
	if _, ok := a.Intersect(c); ok {
		t.Error("touching half-open regions should be disjoint")
	}
}

func TestRegionClip(t *testing.T) {
	s := Shape{4, 4}
	r, _ := NewRegion([]int{2, 2}, []int{8, 8})
	clipped := r.Clip(s)
	if clipped.Hi[0] != 4 || clipped.Hi[1] != 4 {
		t.Errorf("Clip = %v", clipped)
	}
	far, _ := NewRegion([]int{10, 10}, []int{12, 12})
	if !far.Clip(s).Empty() {
		t.Error("out-of-range clip should be empty")
	}
}

func TestRegionEachOrderAndCount(t *testing.T) {
	r, _ := NewRegion([]int{1, 1}, []int{3, 4})
	var pts [][]int
	r.Each(func(c []int) { pts = append(pts, append([]int(nil), c...)) })
	if int64(len(pts)) != r.Elems() {
		t.Fatalf("Each visited %d points, want %d", len(pts), r.Elems())
	}
	// Row-major: last dim fastest.
	if pts[0][0] != 1 || pts[0][1] != 1 || pts[1][1] != 2 {
		t.Errorf("Each order wrong: %v", pts[:2])
	}
	// Empty region: no calls.
	calls := 0
	(Region{Lo: []int{0}, Hi: []int{0}}).Each(func([]int) { calls++ })
	if calls != 0 {
		t.Error("Each on empty region made calls")
	}
}

func TestRegionString(t *testing.T) {
	r, _ := NewRegion([]int{1, 2}, []int{3, 4})
	if got := r.String(); got != "[1,3)×[2,4)" {
		t.Errorf("String() = %q", got)
	}
}

func TestShapeCoordsQuick(t *testing.T) {
	s := Shape{7, 11, 13}
	f := func(n uint32) bool {
		idx := int64(n) % s.Elems()
		c := s.Coords(idx, nil)
		return s.Linear(c) == idx && s.Contains(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Contains on Shape for the quick test above.
func (s Shape) Contains(c []int) bool {
	if len(c) != len(s) {
		return false
	}
	for d := range c {
		if c[d] < 0 || c[d] >= s[d] {
			return false
		}
	}
	return true
}

func TestParseShape(t *testing.T) {
	good := map[string][]int{
		"1024x1024": {1024, 1024},
		"4X4":       {4, 4},
		"2,3,4":     {2, 3, 4},
		"16":        {16},
	}
	for in, want := range good {
		got, err := ParseShape(in)
		if err != nil {
			t.Fatalf("ParseShape(%q): %v", in, err)
		}
		if len(got) != len(want) {
			t.Fatalf("ParseShape(%q) = %v", in, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ParseShape(%q) = %v, want %v", in, got, want)
			}
		}
	}
	for _, in := range []string{"", "axb", "4x0", "-1x4"} {
		if _, err := ParseShape(in); err == nil {
			t.Errorf("ParseShape(%q) accepted", in)
		}
	}
}
