package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// smoothField mimics simulation data: a slowly varying signal with
// small correlated noise, the regime ISABELA/ISOBAR are built for.
func smoothField(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	phase := r.Float64() * 10
	for i := range out {
		x := float64(i) / 64
		out[i] = 300 + 50*math.Sin(x+phase) + 10*math.Cos(3*x) + r.NormFloat64()*0.1
	}
	return out
}

func noisyField(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(20)-10))
	}
	return out
}

func losslessCodecs() []FloatCodec {
	return []FloatCodec{RawFloats{}, NewIsobar(DefaultZlibLevel)}
}

func TestLosslessRoundtripSmooth(t *testing.T) {
	values := smoothField(5000, 1)
	for _, c := range losslessCodecs() {
		enc, err := c.EncodeFloats(values)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dec, err := c.DecodeFloats(enc, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(dec) != len(values) {
			t.Fatalf("%s: got %d values, want %d", c.Name(), len(dec), len(values))
		}
		for i := range values {
			if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
				t.Fatalf("%s: value %d: %v != %v", c.Name(), i, dec[i], values[i])
			}
		}
	}
}

func TestLosslessRoundtripSpecials(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 42}
	for _, c := range losslessCodecs() {
		enc, err := c.EncodeFloats(values)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dec, err := c.DecodeFloats(enc, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for i := range values {
			if math.Float64bits(dec[i]) != math.Float64bits(values[i]) {
				t.Fatalf("%s: special %d: %v != %v", c.Name(), i, dec[i], values[i])
			}
		}
	}
}

func TestLosslessRoundtripEmpty(t *testing.T) {
	for _, c := range losslessCodecs() {
		enc, err := c.EncodeFloats(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		dec, err := c.DecodeFloats(enc, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(dec) != 0 {
			t.Fatalf("%s: decoded %d values from empty input", c.Name(), len(dec))
		}
	}
}

func TestIsobarBeatsRawOnSmoothData(t *testing.T) {
	values := smoothField(1<<15, 2)
	raw, _ := RawFloats{}.EncodeFloats(values)
	iso, err := NewIsobar(DefaultZlibLevel).EncodeFloats(values)
	if err != nil {
		t.Fatal(err)
	}
	if len(iso) >= len(raw) {
		t.Fatalf("isobar did not compress smooth data: %d >= %d", len(iso), len(raw))
	}
}

func TestIsobarDoesNotBlowUpOnNoise(t *testing.T) {
	// The ISOBAR analysis must keep incompressible planes raw so random
	// data never inflates by more than the per-plane framing overhead.
	values := noisyField(1<<14, 3)
	raw, _ := RawFloats{}.EncodeFloats(values)
	iso, err := NewIsobar(DefaultZlibLevel).EncodeFloats(values)
	if err != nil {
		t.Fatal(err)
	}
	overhead := float64(len(iso))/float64(len(raw)) - 1
	if overhead > 0.02 {
		t.Fatalf("isobar inflated noise by %.1f%%", overhead*100)
	}
}

func TestIsabelaErrorBound(t *testing.T) {
	cfg := DefaultIsabelaConfig()
	cfg.RelError = 0.01
	c := NewIsabela(cfg)
	values := smoothField(5000, 5)
	enc, err := c.EncodeFloats(values)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.DecodeFloats(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(values) {
		t.Fatalf("got %d values, want %d", len(dec), len(values))
	}
	var maxAbs float64
	for _, v := range values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	for i := range values {
		scale := c.DecodedScale(values[i], maxAbs)
		rel := math.Abs(dec[i]-values[i]) / scale
		// Quantization guarantees 0.5ε against the approx-based scale;
		// allow the full ε against the value-based scale.
		if rel > cfg.RelError*1.05 {
			t.Fatalf("value %d: %v -> %v, scaled error %v > ε", i, values[i], dec[i], rel)
		}
	}
}

func TestIsabelaCompressionRatioOnSmoothData(t *testing.T) {
	// The paper's Table I shows ISABELA reducing 8 GB raw to 1.6 GB
	// (5x). On very smooth synthetic data we should comfortably beat 2x.
	c := NewIsabela(DefaultIsabelaConfig())
	values := smoothField(1<<16, 6)
	enc, err := c.EncodeFloats(values)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(values)*8) / float64(len(enc))
	if ratio < 2 {
		t.Fatalf("isabela ratio %.2f < 2 on smooth data", ratio)
	}
	t.Logf("isabela ratio on smooth data: %.2fx", ratio)
}

func TestIsabelaTinyInputs(t *testing.T) {
	c := NewIsabela(DefaultIsabelaConfig())
	for _, n := range []int{0, 1, 3, 7, 8, 31, 1023, 1025} {
		values := smoothField(n, int64(n))
		enc, err := c.EncodeFloats(values)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		dec, err := c.DecodeFloats(enc, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(dec) != n {
			t.Fatalf("n=%d: decoded %d", n, len(dec))
		}
	}
}

func TestIsabelaAllZeroWindow(t *testing.T) {
	c := NewIsabela(DefaultIsabelaConfig())
	values := make([]float64, 2048)
	enc, err := c.EncodeFloats(values)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.DecodeFloats(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range dec {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("zero window decoded to %v at %d", v, i)
		}
	}
}

func TestIsabelaRejectsNonFinite(t *testing.T) {
	c := NewIsabela(DefaultIsabelaConfig())
	values := smoothField(2048, 7)
	values[100] = math.NaN()
	if _, err := c.EncodeFloats(values); err == nil {
		t.Fatal("NaN accepted")
	}
	values[100] = math.Inf(1)
	if _, err := c.EncodeFloats(values); err == nil {
		t.Fatal("Inf accepted")
	}
}

func TestDecodeErrorsOnTruncation(t *testing.T) {
	values := smoothField(4096, 8)
	codecs := []FloatCodec{NewIsobar(DefaultZlibLevel), NewIsabela(DefaultIsabelaConfig())}
	for _, c := range codecs {
		enc, err := c.EncodeFloats(values)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
			if _, err := c.DecodeFloats(enc[:cut], nil); err == nil {
				t.Errorf("%s: truncation to %d bytes accepted", c.Name(), cut)
			}
		}
	}
}

func TestRawFloatsRejectsBadLength(t *testing.T) {
	if _, err := (RawFloats{}).DecodeFloats(make([]byte, 9), nil); err == nil {
		t.Fatal("misaligned raw buffer accepted")
	}
}

func TestZlibRoundtrip(t *testing.T) {
	z := NewZlib(DefaultZlibLevel)
	data := []byte("hello hello hello hello compressed world")
	enc, err := z.EncodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := z.DecodeBytes(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec) != string(data) {
		t.Fatal("zlib roundtrip mismatch")
	}
	if _, err := z.DecodeBytes([]byte{1, 2, 3}, nil); err == nil {
		t.Fatal("garbage zlib input accepted")
	}
}

func TestZlibLevelClamping(t *testing.T) {
	for _, lvl := range []int{-99, 0, 6, 99} {
		z := NewZlib(lvl)
		enc, err := z.EncodeBytes([]byte("abc"))
		if err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		dec, err := z.DecodeBytes(enc, nil)
		if err != nil || string(dec) != "abc" {
			t.Fatalf("level %d roundtrip failed", lvl)
		}
	}
}

func TestRawBytesRoundtrip(t *testing.T) {
	r := RawBytes{}
	enc, _ := r.EncodeBytes([]byte{1, 2, 3})
	dec, _ := r.DecodeBytes(enc, []byte{0})
	if len(dec) != 4 || dec[0] != 0 || dec[3] != 3 {
		t.Fatalf("RawBytes roundtrip = %v", dec)
	}
}

func TestCodecRegistry(t *testing.T) {
	for _, name := range []string{"raw", "isobar", "isabela"} {
		c, err := NewFloatCodec(name)
		if err != nil {
			t.Fatalf("NewFloatCodec(%s): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("NewFloatCodec(%s).Name() = %s", name, c.Name())
		}
	}
	if _, err := NewFloatCodec("nope"); err == nil {
		t.Error("unknown float codec accepted")
	}
	for _, name := range []string{"raw", "zlib"} {
		c, err := NewByteCodec(name)
		if err != nil {
			t.Fatalf("NewByteCodec(%s): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("NewByteCodec(%s).Name() = %s", name, c.Name())
		}
	}
	if _, err := NewByteCodec("nope"); err == nil {
		t.Error("unknown byte codec accepted")
	}
}

func TestBitPackRoundtripQuick(t *testing.T) {
	f := func(seed int64, bitsRaw uint8) bool {
		bits := uint(bitsRaw%20) + 1
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200)
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(r.Int63()) & (1<<bits - 1)
		}
		packed := packBits(nil, vals, bits)
		got, rest, err := unpackBits(packed, n, bits)
		if err != nil || len(rest) != 0 {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIsobarRoundtripQuick(t *testing.T) {
	c := NewIsobar(DefaultZlibLevel)
	f := func(seed int64) bool {
		values := smoothField(512, seed)
		enc, err := c.EncodeFloats(values)
		if err != nil {
			return false
		}
		dec, err := c.DecodeFloats(enc, nil)
		if err != nil || len(dec) != len(values) {
			return false
		}
		for i := range values {
			if dec[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIsobarEncode(b *testing.B) {
	values := smoothField(1<<16, 1)
	c := NewIsobar(DefaultZlibLevel)
	b.SetBytes(int64(len(values) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeFloats(values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsabelaEncode(b *testing.B) {
	values := smoothField(1<<16, 1)
	c := NewIsabela(DefaultIsabelaConfig())
	b.SetBytes(int64(len(values) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeFloats(values); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIsabelaDecode(b *testing.B) {
	values := smoothField(1<<16, 1)
	c := NewIsabela(DefaultIsabelaConfig())
	enc, err := c.EncodeFloats(values)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, 0, len(values))
	b.SetBytes(int64(len(values) * 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = c.DecodeFloats(enc, dst[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}
