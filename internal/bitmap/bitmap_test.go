package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitmapSetGetClear(t *testing.T) {
	b := New(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int64{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("fresh bitmap has bit %d set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("Set(%d) did not stick", i)
		}
	}
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	b.Reset()
	if b.Get(64) || b.Count() != 0 || b.Len() != 130 {
		t.Fatal("Reset did not clear every bit")
	}
}

func TestBitmapBoundsPanics(t *testing.T) {
	b := New(10)
	for _, f := range []func(){
		func() { b.Get(-1) },
		func() { b.Get(10) },
		func() { b.Set(10) },
		func() { b.Set(-1) },
		func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBitmapLogicOps(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(1)
	a.Set(50)
	a.Set(99)
	b.Set(50)
	b.Set(60)

	or := a.Clone()
	or.Or(b)
	if or.Count() != 4 {
		t.Error("Or wrong")
	}
}

func TestBitmapLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	a.Or(b)
}

func TestBitmapEachIndices(t *testing.T) {
	b := New(200)
	want := []int64{0, 31, 32, 63, 64, 100, 199}
	for _, i := range want {
		b.Set(i)
	}
	got := b.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestBitmapEqual(t *testing.T) {
	a, b := New(64), New(64)
	if !a.Equal(b) {
		t.Fatal("empty bitmaps unequal")
	}
	a.Set(3)
	if a.Equal(b) {
		t.Fatal("different bitmaps equal")
	}
	if a.Equal(New(65)) {
		t.Fatal("different lengths equal")
	}
}

func TestBitmapQuickCountMatchesSets(t *testing.T) {
	f := func(seed int64, nSets uint8) bool {
		b := New(500)
		r := rand.New(rand.NewSource(seed))
		set := map[int64]bool{}
		for i := 0; i < int(nSets); i++ {
			k := r.Int63n(500)
			b.Set(k)
			set[k] = true
		}
		return b.Count() == int64(len(set))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
