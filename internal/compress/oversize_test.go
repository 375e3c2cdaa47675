package compress

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"mloc/internal/bspline"
	"mloc/internal/plod"
)

// oversizeHuge is a declared length no real payload could back; a
// decoder that trusts it either allocates by it or wraps an int
// conversion negative and panics.
const oversizeHuge = uint64(1) << 60

// TestDecodeRejectsOversizedDeclarations feeds each float decoder a
// header that declares far more data than the payload holds and
// requires a clean error — no panic, no declared-size allocation.
func TestDecodeRejectsOversizedDeclarations(t *testing.T) {
	isabelaHeader := func(count, window, ncoefs uint64) []byte {
		out := putUvarint(nil, count)
		out = putUvarint(out, window)
		out = putUvarint(out, ncoefs)
		return append(out, make([]byte, 8)...) // epsilon
	}
	cases := []struct {
		name  string
		codec FloatCodec
		data  []byte
	}{
		{
			name:  "isobar count bomb",
			codec: NewIsobar(DefaultZlibLevel),
			data:  append(putUvarint(nil, oversizeHuge), 0, 0),
		},
		{
			name:  "isobar plane length bomb",
			codec: NewIsobar(DefaultZlibLevel),
			// count 4, plane 0 raw with an absurd declared length.
			data: append(append(putUvarint(nil, 4), 0), putUvarint(nil, oversizeHuge)...),
		},
		{
			name:  "isabela count bomb",
			codec: NewIsabela(DefaultIsabelaConfig()),
			data:  isabelaHeader(oversizeHuge, 4, 2),
		},
		{
			name:  "isabela count wrap",
			codec: NewIsabela(DefaultIsabelaConfig()),
			// A count of 1<<63 wraps int() negative: unchecked, the
			// window loop never runs and nothing is decoded, no error.
			data: append(isabelaHeader(1<<63, 4, 2), make([]byte, 16)...),
		},
		{
			name:  "isobar short raw plane",
			codec: NewIsobar(DefaultZlibLevel),
			// count 4: plane 0 raw holds 3 of its 8 bytes, planes 1-6
			// their 4 each.
			data: func() []byte {
				out := append(putUvarint(nil, 4), 0, 3, 1, 2, 3)
				for p := 1; p < plod.NumPlanes; p++ {
					out = append(out, 0, 4, 1, 2, 3, 4)
				}
				return out
			}(),
		},
		{
			name:  "isabela window wrap",
			codec: NewIsabela(DefaultIsabelaConfig()),
			// A window above MaxInt64 wraps int() negative without its
			// clamp: the raw window then reads nothing and the loop
			// ends, so 8 of the 16 bytes two values need decode to no
			// values and no error.
			data: append(append(isabelaHeader(2, 1<<63, 2), isaWindowRaw), make([]byte, 8)...),
		},
		{
			name:  "isabela coefficient wrap",
			codec: NewIsabela(DefaultIsabelaConfig()),
			// A coefficient count above MaxInt64 wraps negative without
			// its clamp and sizes the coefficient slice.
			data: append(append(isabelaHeader(2, 2, 1<<63), isaWindowSpline), isaFloor...),
		},
		{
			name:  "isabela residual bomb",
			codec: NewIsabela(DefaultIsabelaConfig()),
			// Five values hold at most 50 residual bytes; this stream
			// inflates to 4 MiB of zero residuals.
			data: isabelaSpline(t, []uint32{0, 1, 2, 3, 4}, make([]byte, 4<<20)),
		},
		{
			name:  "isabela permutation out of range",
			codec: NewIsabela(DefaultIsabelaConfig()),
			data:  isabelaSpline(t, []uint32{0, 1, 2, 3, 7}, make([]byte, 5)),
		},
	}
	if _, err := NewIsabela(DefaultIsabelaConfig()).DecodeFloats(isabelaSpline(t, []uint32{4, 0, 3, 1, 2}, make([]byte, 5)), nil); err != nil {
		t.Fatalf("the well-formed spline window the last cases corrupt: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.codec.DecodeFloats(tc.data, nil)
			if err == nil {
				t.Fatalf("decode accepted oversized declaration, returned %d values", len(out))
			}
		})
	}
}

// isaFloor is an ISABELA window's scale floor, 1.0.
var isaFloor = binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))

// isabelaSpline is an ISABELA stream of one spline window over
// len(perm) values: zero coefficients, the permutation perm and the
// zlib-compressed residual bytes resid (each zero byte a residual of 0).
func isabelaSpline(t *testing.T, perm []uint32, resid []byte) []byte {
	t.Helper()
	n := uint64(len(perm))
	out := putUvarint(nil, n)
	out = putUvarint(out, n)
	out = putUvarint(out, bspline.Degree+1)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(1e-3)) // relative error
	out = append(out, isaWindowSpline)
	out = append(out, isaFloor...)
	out = append(out, make([]byte, 8*(bspline.Degree+1))...)
	out = packBits(out, perm, bitsFor(len(perm)))
	enc, err := NewZlib(DefaultZlibLevel).EncodeBytes(resid)
	if err != nil {
		t.Fatal(err)
	}
	out = putUvarint(out, uint64(len(enc)))
	return append(out, enc...)
}

// TestIsobarRejectsOverlongCompressedPlane builds a plane whose zlib
// payload inflates past the length the header implies; the bounded
// decode must refuse it rather than materialize the whole stream.
func TestIsobarRejectsOverlongCompressedPlane(t *testing.T) {
	zl := NewZlib(DefaultZlibLevel)
	bomb, err := zl.EncodeBytes(make([]byte, 1<<16))
	if err != nil {
		t.Fatal(err)
	}
	data := putUvarint(nil, 2) // count 2: plane 0 should hold 2*width bytes
	data = append(data, 1)     // flag: zlib
	data = putUvarint(data, uint64(len(bomb)))
	data = append(data, bomb...)
	if _, err := NewIsobar(DefaultZlibLevel).DecodeFloats(data, nil); err == nil {
		t.Fatal("isobar accepted a compressed plane that inflates past its declared size")
	}
}

// TestZlibDecodeBytesMax checks the limit boundary exactly.
func TestZlibDecodeBytesMax(t *testing.T) {
	zl := NewZlib(DefaultZlibLevel)
	src := make([]byte, 1000)
	for i := range src {
		src[i] = byte(i)
	}
	enc, err := zl.EncodeBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zl.DecodeBytesMax(enc, nil, int64(len(src))-1); err == nil {
		t.Fatal("decode under-limit succeeded")
	}
	got, err := zl.DecodeBytesMax(enc, nil, int64(len(src)))
	if err != nil {
		t.Fatalf("decode at exact limit failed: %v", err)
	}
	if len(got) != len(src) {
		t.Fatalf("got %d bytes, want %d", len(got), len(src))
	}
}

// TestIsobarRoundtripAfterHardening guards against the bounds rejecting
// legitimate encodings (the plausibility cap must sit above any ratio a
// real stream achieves).
func TestIsobarRoundtripAfterHardening(t *testing.T) {
	values := make([]float64, 3*plod.NumPlanes*1000)
	for i := range values {
		values[i] = float64(i % 17)
	}
	c := NewIsobar(DefaultZlibLevel)
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
	for i := range dec {
		if dec[i] != values[i] {
			t.Fatalf("value %d: got %v, want %v", i, dec[i], values[i])
		}
	}
}

// TestIsobarInflatesNoMoreThanDeclared: a small zlib payload can stand
// for up to ~1 000 times its size. A count no payload could back is
// refused before any plane is inflated, and a plane is inflated at
// most one byte past what the count allows, so neither a count bomb
// nor an over-long plane allocates by the inflated size.
func TestIsobarInflatesNoMoreThanDeclared(t *testing.T) {
	zl := NewZlib(DefaultZlibLevel)
	bomb, err := zl.EncodeBytes(make([]byte, 4<<20))
	if err != nil {
		t.Fatal(err)
	}
	plane := func(count uint64) []byte {
		data := putUvarint(nil, count)
		data = append(data, 1) // flag: zlib
		data = putUvarint(data, uint64(len(bomb)))
		return append(data, bomb...)
	}
	c := NewIsobar(DefaultZlibLevel)
	for _, count := range []uint64{1 << 40, 2} {
		data := plane(count)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := c.DecodeFloats(data, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("count %d: isobar accepted a %d-byte plane that inflates to 4 MiB", count, len(bomb))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
			t.Errorf("count %d: decode allocated %d bytes for a %d-byte payload", count, got, len(data))
		}
	}
}
