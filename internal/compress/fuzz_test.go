package compress

import (
	"bytes"
	"math"
	"testing"
)

// Fuzz targets: decoders must never panic or hang on arbitrary input,
// and encode→decode must round-trip for every lossless codec. `go test`
// runs the seed corpus; `go test -fuzz=FuzzX` explores further.

func FuzzIsobarDecode(f *testing.F) {
	c := NewIsobar(DefaultZlibLevel)
	seed, _ := c.EncodeFloats([]float64{1, 2, 3, math.Pi})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must not panic; errors are fine.
		_, _ = c.DecodeFloats(data, nil)
	})
}

func FuzzIsabelaDecode(f *testing.F) {
	c := NewIsabela(DefaultIsabelaConfig())
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	seed, _ := c.EncodeFloats(vals)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x40, 0x08, 0x1e})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = c.DecodeFloats(data, nil)
	})
}

func FuzzBitUnpack(f *testing.F) {
	f.Add([]byte{0xAB, 0xCD}, 3, uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, count int, bitsRaw uint8) {
		if count < 0 || count > 1<<12 {
			return
		}
		bits := uint(bitsRaw%31) + 1
		// Must not panic; errors are fine.
		_, _, _ = unpackBits(data, count, bits)
	})
}

// FuzzZlibDecode: arbitrary bytes inflated into a dst of arbitrary
// capacity, with and without a limit, never panic and never yield more
// than the limit; and what the encoder wrote decodes back to its input
// whatever dst looked like.
func FuzzZlibDecode(f *testing.F) {
	z := NewZlib(DefaultZlibLevel)
	seed, _ := z.EncodeBytes([]byte("a plane of a storage unit, ten values or so"))
	f.Add(seed, 0, 16)
	f.Add(seed, 43, 43)
	f.Add(seed[:len(seed)/2], 7, 100)
	f.Add(append(append([]byte(nil), seed...), 9, 9), 64, 64)
	f.Add([]byte{}, 0, 0)
	f.Add([]byte{0x78, 0x9c}, 1, 1)
	f.Fuzz(func(t *testing.T, data []byte, room, max int) {
		if room < 0 || room > 1<<16 || max < 0 || max > 1<<16 {
			return
		}
		_, _ = z.DecodeBytes(data, make([]byte, 0, room))
		if out, err := z.DecodeBytesMax(data, make([]byte, 0, room), int64(max)); err == nil && len(out) > max {
			t.Fatalf("decoded %d bytes under a %d-byte limit", len(out), max)
		}
		enc, err := z.EncodeBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := z.DecodeBytesMax(enc, make([]byte, 0, room), int64(len(data)))
		if err != nil || !bytes.Equal(dec, data) {
			t.Fatalf("roundtrip into a %d-byte dst: %d bytes for %d, %v", room, len(dec), len(data), err)
		}
	})
}

// FuzzZlibFloor: ZlibFloor never exceeds the length of the stream any
// level emits. The floor's proof reads compress/flate's framing, so this
// is its guard against a Go upgrade that changes it.
func FuzzZlibFloor(f *testing.F) {
	codecs := zlibFloorCodecs()
	f.Add([]byte{})
	f.Add([]byte{'x'})
	f.Add([]byte("a plane of a storage unit, ten values or so"))
	f.Add(bytes.Repeat([]byte{0x40, 0x24}, 10))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 60))
	f.Fuzz(func(t *testing.T, src []byte) {
		checkZlibFloor(t, codecs, src)
	})
}
