package compress

import (
	"testing"

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
			name:  "isabela window wrap",
			codec: NewIsabela(DefaultIsabelaConfig()),
			// Tiny count, but window and coefficient counts above
			// MaxInt64 would wrap int() negative without the clamps.
			data: append(isabelaHeader(2, 1<<63, 1<<63), make([]byte, 2)...),
		},
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
