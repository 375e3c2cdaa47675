package bitmap

import (
	"math/rand"
	"testing"
)

// mixedBitmap fills a bitmap with varied structure: uniform noise,
// dense runs, and long zero gaps, so WAH fills and literals both occur.
func mixedBitmap(n int64, seed int64) *Bitmap {
	r := rand.New(rand.NewSource(seed))
	b := New(n)
	i := int64(0)
	for i < n {
		switch r.Intn(3) {
		case 0: // zero gap
			i += int64(r.Intn(200))
		case 1: // dense run
			run := int64(r.Intn(100))
			for j := int64(0); j < run && i < n; j++ {
				b.Set(i)
				i++
			}
		default: // sparse noise
			span := int64(r.Intn(150))
			for j := int64(0); j < span && i < n; j++ {
				if r.Intn(4) == 0 {
					b.Set(i)
				}
				i++
			}
		}
	}
	return b
}

func TestWAHBitsEquivalence(t *testing.T) {
	lengths := []int64{1, 30, 31, 32, 62, 63, 100, 3100}
	for trial := int64(0); trial < 30; trial++ {
		n := lengths[trial%int64(len(lengths))] + trial
		raw := mixedBitmap(n, 1100+trial)
		w := Compress(raw)
		var got []int64
		it := w.Bits()
		for i, ok := it.Next(); ok; i, ok = it.Next() {
			got = append(got, i)
		}
		want := raw.Indices()
		if len(got) != len(want) {
			t.Fatalf("n=%d: Bits walked %d bits, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: position %d: Bits %d != %d", n, i, got[i], want[i])
			}
		}
	}
	// All-ones bitmap exercises the fill-run path including the clamped
	// final group.
	b := New(100)
	for i := int64(0); i < 100; i++ {
		b.Set(i)
	}
	it := Compress(b).Bits()
	for want := int64(0); want < 100; want++ {
		i, ok := it.Next()
		if !ok || i != want {
			t.Fatalf("ones: got (%d,%v), want %d", i, ok, want)
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("ones: iterator overran")
	}
}
