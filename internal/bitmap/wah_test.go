package bitmap

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomBitmap(n int64, density float64, seed int64) *Bitmap {
	b := New(n)
	r := rand.New(rand.NewSource(seed))
	for i := int64(0); i < n; i++ {
		if r.Float64() < density {
			b.Set(i)
		}
	}
	return b
}

func TestWAHRoundtripSparse(t *testing.T) {
	for _, n := range []int64{0, 1, 30, 31, 32, 62, 63, 100, 1000, 10000} {
		b := randomBitmap(n, 0.01, n+1)
		w := Compress(b)
		if w.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, w.Len())
		}
		back := w.Decompress()
		if !b.Equal(back) {
			t.Fatalf("n=%d: roundtrip mismatch", n)
		}
	}
}

func TestWAHRoundtripDense(t *testing.T) {
	for _, density := range []float64{0, 0.5, 0.99, 1} {
		b := randomBitmap(5000, density, int64(density*100)+3)
		back := Compress(b).Decompress()
		if !b.Equal(back) {
			t.Fatalf("density=%v: roundtrip mismatch", density)
		}
	}
}

func TestWAHRunsCompress(t *testing.T) {
	// A bitmap of one million zeros with a handful of set bits must
	// compress far below the plain representation — the property the
	// FastBit baseline's index sizes depend on.
	b := New(1 << 20)
	for _, i := range []int64{5, 100000, 999999} {
		b.Set(i)
	}
	w := Compress(b)
	plain := 8 + 8*(b.Len()+63)/64
	if w.SizeBytes() > plain/100 {
		t.Fatalf("WAH size %d not << plain size %d", w.SizeBytes(), plain)
	}
	if !w.Decompress().Equal(b) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestWAHOrAnd(t *testing.T) {
	a := randomBitmap(5000, 0.05, 1)
	b := randomBitmap(5000, 0.05, 2)
	wa, wb := Compress(a), Compress(b)

	or := wa.Or(wb).Decompress()
	wantOr := a.Clone()
	wantOr.Or(b)
	if !or.Equal(wantOr) {
		t.Error("WAH Or mismatch")
	}
}

func TestWAHOrWithFills(t *testing.T) {
	// Long runs in both operands exercise the fill-vs-fill path.
	a := New(31 * 100)
	b := New(31 * 100)
	for i := int64(0); i < 31*50; i++ {
		a.Set(i)
	}
	for i := int64(31 * 25); i < 31*75; i++ {
		b.Set(i)
	}
	or := Compress(a).Or(Compress(b)).Decompress()
	want := a.Clone()
	want.Or(b)
	if !or.Equal(want) {
		t.Fatal("fill-heavy Or mismatch")
	}
}

func TestWAHLengthMismatchPanics(t *testing.T) {
	a, b := Compress(New(31)), Compress(New(62))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.Or(b)
}

func TestWAHMarshalRoundtrip(t *testing.T) {
	b := randomBitmap(4321, 0.07, 5)
	w := Compress(b)
	data, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != w.SizeBytes() {
		t.Fatalf("SizeBytes %d != marshaled length %d", w.SizeBytes(), len(data))
	}
	var back WAH
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if !back.Decompress().Equal(b) {
		t.Fatal("marshal roundtrip mismatch")
	}
	if err := back.UnmarshalBinary(data[:3]); err == nil {
		t.Fatal("truncated header accepted")
	}
	if err := back.UnmarshalBinary(data[:len(data)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestWAHQuickRoundtrip(t *testing.T) {
	f := func(seed int64, d uint8) bool {
		density := float64(d%100) / 100
		b := randomBitmap(2000, density, seed)
		return Compress(b).Decompress().Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWAHQuickOpsMatchPlain(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a := randomBitmap(1500, 0.1, s1)
		b := randomBitmap(1500, 0.1, s2)
		or := Compress(a).Or(Compress(b)).Decompress()
		want := a.Clone()
		want.Or(b)
		return or.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWAHCompress(b *testing.B) {
	bm := randomBitmap(1<<18, 0.01, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Compress(bm)
	}
}

func BenchmarkWAHOr(b *testing.B) {
	x := Compress(randomBitmap(1<<18, 0.01, 1))
	y := Compress(randomBitmap(1<<18, 0.01, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Or(y)
	}
}
