package plod

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomValues(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		// Mix of magnitudes and signs, like simulation fields.
		out[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(12)-6))
	}
	return out
}

func TestBytesPerValue(t *testing.T) {
	want := map[int]int{1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 7, 7: 8}
	for lvl, w := range want {
		if got := BytesPerValue(lvl); got != w {
			t.Errorf("BytesPerValue(%d) = %d, want %d", lvl, got, w)
		}
	}
}

func TestLevelPanics(t *testing.T) {
	for _, f := range []func(){
		func() { BytesPerValue(0) },
		func() { BytesPerValue(8) },
		func() { PlanesForLevel(0) },
		func() { PlaneWidth(-1) },
		func() { PlaneWidth(7) },
		func() { RelErrorBound(9, FillCentered) },
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

func TestSplitPlaneSizes(t *testing.T) {
	values := randomValues(13, 1)
	planes := Split(values)
	if len(planes[0]) != 26 {
		t.Errorf("plane 0 has %d bytes, want 26", len(planes[0]))
	}
	for p := 1; p < NumPlanes; p++ {
		if len(planes[p]) != 13 {
			t.Errorf("plane %d has %d bytes, want 13", p, len(planes[p]))
		}
	}
}

func TestFullRoundtripExact(t *testing.T) {
	values := randomValues(1000, 2)
	values = append(values, 0, -0.0, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64)
	planes := Split(values)
	back := AssembleFull(planesSlice(planes), len(values), nil)
	for i := range values {
		if math.Float64bits(back[i]) != math.Float64bits(values[i]) {
			t.Fatalf("value %d: %v -> %v (bit-level mismatch)", i, values[i], back[i])
		}
	}
}

func planesSlice(p [NumPlanes][]byte) [][]byte {
	out := make([][]byte, NumPlanes)
	for i := range p {
		out[i] = p[i]
	}
	return out
}

func TestPartialLevelsErrorBound(t *testing.T) {
	values := randomValues(5000, 3)
	planes := Split(values)
	for lvl := 1; lvl < MaxLevel; lvl++ {
		bound := RelErrorBound(lvl, FillCentered)
		back := Assemble(planesSlice(planes), lvl, len(values), FillCentered, nil)
		for i, v := range values {
			if v == 0 {
				continue
			}
			rel := math.Abs(back[i]-v) / math.Abs(v)
			// Allow a tiny slack factor for rounding at interval edges.
			if rel > bound*1.0001 {
				t.Fatalf("level %d: value %v reconstructed as %v, rel err %g > bound %g",
					lvl, v, back[i], rel, bound)
			}
		}
	}
}

func TestLevel2MatchesPaperErrorClaim(t *testing.T) {
	// Paper: PLoD level 2 (3 bytes) has max per-point relative error
	// 0.008% measured on S3D. Our theoretical worst-case bound for
	// centered fill at 3 bytes is 2^-13 ≈ 0.0122%; the measured maximum
	// must sit below the bound, so the bound being the same order of
	// magnitude (and >= the measurement) is the consistency check.
	bound := RelErrorBound(2, FillCentered)
	if bound < 0.00008 {
		t.Errorf("level-2 bound %g below the paper's measured 0.008%% — bound must dominate measurements", bound)
	}
	if bound > 0.0002 {
		t.Errorf("level-2 bound %g is not the paper's order of magnitude", bound)
	}
	if saved := float64(8-BytesPerValue(2)) / 8; saved != 0.625 {
		t.Errorf("level 2 saves %v of the bytes, want 0.625 (62.5%%)", saved)
	}
}

func TestCenteredBeatsZeroFill(t *testing.T) {
	// The paper's rationale for 0x7F/0xFF fill: zero fill always
	// underestimates magnitude, centered fill halves the worst case.
	values := randomValues(2000, 4)
	planes := Split(values)
	for _, lvl := range []int{1, 2, 3} {
		var sumC, sumZ float64
		backC := Assemble(planesSlice(planes), lvl, len(values), FillCentered, nil)
		backZ := Assemble(planesSlice(planes), lvl, len(values), FillZero, nil)
		for i, v := range values {
			if v == 0 {
				continue
			}
			sumC += math.Abs(backC[i]-v) / math.Abs(v)
			sumZ += math.Abs(backZ[i]-v) / math.Abs(v)
		}
		if sumC >= sumZ {
			t.Errorf("level %d: centered fill mean error %g not better than zero fill %g",
				lvl, sumC/float64(len(values)), sumZ/float64(len(values)))
		}
	}
}

func TestZeroFillTruncates(t *testing.T) {
	// Zero fill must reproduce the plain truncation: magnitude never
	// increases.
	values := randomValues(500, 5)
	planes := Split(values)
	back := Assemble(planesSlice(planes), 2, len(values), FillZero, nil)
	for i, v := range values {
		if math.Abs(back[i]) > math.Abs(v) {
			t.Fatalf("zero-fill increased magnitude: %v -> %v", v, back[i])
		}
	}
}

func TestAssemblePanics(t *testing.T) {
	values := randomValues(10, 6)
	planes := planesSlice(Split(values))
	for _, f := range []func(){
		func() { Assemble(planes[:1], 3, 10, FillCentered, nil) },   // too few planes
		func() { Assemble(planes, 3, 11, FillCentered, nil) },       // n too large
		func() { Assemble([][]byte{{1}}, 1, 1, FillCentered, nil) }, // short plane 0
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

func TestRelErrorBoundMonotone(t *testing.T) {
	prev := math.Inf(1)
	for lvl := 1; lvl <= MaxLevel; lvl++ {
		b := RelErrorBound(lvl, FillCentered)
		if b >= prev {
			t.Errorf("bound not decreasing at level %d: %g >= %g", lvl, b, prev)
		}
		prev = b
	}
	if RelErrorBound(MaxLevel, FillCentered) != 0 {
		t.Error("full precision bound must be 0")
	}
}

func TestQuickRoundtripFullPrecision(t *testing.T) {
	f := func(raw []uint64) bool {
		if len(raw) == 0 {
			return true
		}
		values := make([]float64, len(raw))
		for i, b := range raw {
			values[i] = math.Float64frombits(b)
		}
		planes := Split(values)
		back := AssembleFull(planesSlice(planes), len(values), nil)
		for i := range values {
			if math.Float64bits(back[i]) != math.Float64bits(values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPartialWithinBound(t *testing.T) {
	f := func(seed int64) bool {
		values := randomValues(64, seed)
		planes := planesSlice(Split(values))
		back := Assemble(planes, 3, len(values), FillCentered, nil)
		bound := RelErrorBound(3, FillCentered) * 1.0001
		for i, v := range values {
			if v == 0 {
				continue
			}
			if math.Abs(back[i]-v)/math.Abs(v) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSplit(b *testing.B) {
	values := randomValues(1<<16, 1)
	b.SetBytes(int64(len(values) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Split(values)
	}
}

func BenchmarkAssembleLevel2(b *testing.B) {
	values := randomValues(1<<16, 1)
	planes := planesSlice(Split(values))
	dst := make([]float64, 0, len(values))
	b.SetBytes(int64(len(values) * 3))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = Assemble(planes, 2, len(values), FillCentered, dst[:0])
	}
}
