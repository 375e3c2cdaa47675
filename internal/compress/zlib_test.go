package compress

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// zlibFixture is a unit-sized plane (a few dozen bytes) and a plane that
// spans several inflate windows, with their encodings.
func zlibFixture(t testing.TB) (z *Zlib, small, large, encSmall, encLarge []byte) {
	t.Helper()
	z = NewZlib(DefaultZlibLevel)
	small = []byte("0123456789012345678901234567890123456789")
	large = make([]byte, 100<<10)
	for i := range large {
		large[i] = byte(i*i>>3) ^ byte(i>>9)
	}
	var err error
	if encSmall, err = z.EncodeBytes(small); err != nil {
		t.Fatal(err)
	}
	if encLarge, err = z.EncodeBytes(large); err != nil {
		t.Fatal(err)
	}
	return z, small, large, encSmall, encLarge
}

// TestZlibDecodeIntoSizedDst: the stream is inflated straight into the
// caller's buffer, whatever its capacity, after whatever it already
// holds.
func TestZlibDecodeIntoSizedDst(t *testing.T) {
	z, small, large, encSmall, encLarge := zlibFixture(t)
	for _, tc := range []struct {
		name      string
		src, enc  []byte
		dst       func(n int) []byte
		sameArray bool // the result must reuse dst's array
	}{
		{"nil dst", small, encSmall, func(int) []byte { return nil }, false},
		{"exact dst", small, encSmall, func(n int) []byte { return make([]byte, 0, n) }, true},
		{"short dst", small, encSmall, func(n int) []byte { return make([]byte, 0, n/3) }, false},
		{"oversized dst", small, encSmall, func(n int) []byte { return make([]byte, 0, 4*n) }, true},
		{"prefix kept, exact room", small, encSmall, func(n int) []byte { return append(make([]byte, 0, 3+n), "abc"...) }, true},
		{"prefix kept, no room", small, encSmall, func(int) []byte { return []byte("abc") }, false},
		{"large nil dst", large, encLarge, func(int) []byte { return nil }, false},
		{"large exact dst", large, encLarge, func(n int) []byte { return make([]byte, 0, n) }, true},
		{"large one short", large, encLarge, func(n int) []byte { return make([]byte, 0, n-1) }, false},
	} {
		dst := tc.dst(len(tc.src))
		prefix := append([]byte(nil), dst...)
		got, err := z.DecodeBytes(tc.enc, dst)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], tc.src) {
			t.Errorf("%s: decoded %d bytes after a %d-byte prefix, want the prefix and the %d source bytes",
				tc.name, len(got)-len(prefix), len(prefix), len(tc.src))
		}
		if tc.sameArray && (cap(dst) == 0 || &got[:1][0] != &dst[:1][0]) {
			t.Errorf("%s: result does not reuse dst's array", tc.name)
		}
	}
}

// TestZlibDecodeExactDstDoesNotGrow: a dst sized exactly to the output
// costs no allocation that a dst with room to spare does not — nothing
// for the output, for a reader over the input, or to find the end of the
// stream. (What both pay is compress/flate's own: a checksum state per
// stream and link tables per dynamic block.)
func TestZlibDecodeExactDstDoesNotGrow(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled readers at random under the race detector")
	}
	z, small, large, encSmall, encLarge := zlibFixture(t)
	for _, tc := range []struct {
		name     string
		src, enc []byte
	}{{"unit-sized plane", small, encSmall}, {"100 KiB plane", large, encLarge}} {
		perDecode := func(dst []byte) float64 {
			decode := func() {
				out, err := z.DecodeBytesMax(tc.enc, dst, int64(len(tc.src)))
				if err != nil || len(out) != len(tc.src) {
					t.Fatalf("%s: %d bytes, %v", tc.name, len(out), err)
				}
			}
			decode() // the pooled reader exists from here on
			return testing.AllocsPerRun(50, decode)
		}
		exact := perDecode(make([]byte, 0, len(tc.src)))
		roomy := perDecode(make([]byte, 0, 2*len(tc.src)+64))
		if exact != roomy {
			t.Errorf("%s: %.0f allocations per decode into an exact-size dst, %.0f into a roomy one", tc.name, exact, roomy)
		}
	}
}

// TestZlibDecodeBytesMaxStopsAtLimit: with a limit the output never
// passes max+1 bytes, however much room dst has and however much the
// stream holds.
func TestZlibDecodeBytesMaxStopsAtLimit(t *testing.T) {
	z, _, large, _, encLarge := zlibFixture(t)
	for _, max := range []int{0, 1, 63, 64, 65, 1000, len(large) - 1} {
		for _, room := range []int{0, max, max + 1, len(large)} {
			dst := make([]byte, 0, room)
			_, err := z.DecodeBytesMax(encLarge, dst, int64(max))
			if err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("max %d, room %d: err = %v, want the limit error", max, room, err)
			}
			// Whatever was written went into dst's array first: nothing
			// past max+1 may have been touched.
			if full := dst[:room]; room > max+1 && !bytes.Equal(full[max+1:], make([]byte, room-max-1)) {
				t.Fatalf("max %d, room %d: bytes past max+1 were written", max, room)
			}
		}
	}
	if got, err := z.DecodeBytesMax(encLarge, nil, int64(len(large))); err != nil || !bytes.Equal(got, large) {
		t.Fatalf("decode at the exact limit: %d bytes, %v", len(got), err)
	}
}

// TestZlibDecodeRejectsDamagedStreams: a stream cut anywhere, or with
// bytes after its checksum, is an error, whether or not dst happens to
// be full when the damage is reached.
func TestZlibDecodeRejectsDamagedStreams(t *testing.T) {
	z, small, _, encSmall, _ := zlibFixture(t)
	dsts := map[string]func() []byte{
		"nil dst":   func() []byte { return nil },
		"exact dst": func() []byte { return make([]byte, 0, len(small)) },
	}
	for name, dst := range dsts {
		for cut := 0; cut < len(encSmall); cut++ {
			if _, err := z.DecodeBytes(encSmall[:cut], dst()); err == nil {
				t.Errorf("%s: stream truncated to %d of %d bytes accepted", name, cut, len(encSmall))
			}
		}
		for _, tail := range [][]byte{{0}, {1, 2, 3, 4}, encSmall} {
			if _, err := z.DecodeBytes(append(append([]byte(nil), encSmall...), tail...), dst()); err == nil {
				t.Errorf("%s: stream with %d trailing bytes accepted", name, len(tail))
			}
		}
		flipped := append([]byte(nil), encSmall...)
		flipped[len(flipped)-1] ^= 0x40 // the Adler-32 trailer
		if _, err := z.DecodeBytes(flipped, dst()); err == nil {
			t.Errorf("%s: stream with a damaged checksum accepted", name)
		}
	}
}

// TestZlibDecodeConcurrent shares one codec between goroutines decoding
// different streams into their own buffers; under -race this covers the
// pooled readers.
func TestZlibDecodeConcurrent(t *testing.T) {
	z, small, large, encSmall, encLarge := zlibFixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src, enc := small, encSmall
			if g%2 == 1 {
				src, enc = large, encLarge
			}
			dst := make([]byte, 0, len(src))
			for i := 0; i < 20; i++ {
				got, err := z.DecodeBytesMax(enc, dst, int64(len(src)))
				if err != nil || !bytes.Equal(got, src) {
					t.Errorf("goroutine %d: %d bytes, %v", g, len(got), err)
					return
				}
				if _, err := z.DecodeBytes(enc[:len(enc)/2], dst); err == nil {
					t.Errorf("goroutine %d: truncated stream accepted", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// zlibFloorLevels is every level NewZlib accepts unclamped that behaves
// differently: Huffman-only, stored, the fast matcher, and the lazy
// matcher at its default and best settings.
var zlibFloorLevels = []int{-2, 0, 1, DefaultZlibLevel, 9}

// checkZlibFloor fails when ZlibFloor(src) exceeds what some level
// actually emits for src.
func checkZlibFloor(t *testing.T, codecs []*Zlib, src []byte) {
	t.Helper()
	floor := ZlibFloor(src)
	for i, z := range codecs {
		enc, err := z.AppendBytes(nil, src)
		if err != nil {
			t.Fatal(err)
		}
		if floor > len(enc) {
			t.Fatalf("level %d, %d-byte input %x: floor %d above the %d-byte stream",
				zlibFloorLevels[i], len(src), src, floor, len(enc))
		}
	}
}

func zlibFloorCodecs() []*Zlib {
	codecs := make([]*Zlib, len(zlibFloorLevels))
	for i, level := range zlibFloorLevels {
		codecs[i] = NewZlib(level)
	}
	return codecs
}

// TestZlibFloor: the floor is a lower bound at every level for every
// length up to past the short-input limit, on inputs from the cheapest
// to deflate to the dearest and on a periodic one, whose byte entropy is
// high but whose matches make it cheap. It is exact where the structural
// argument is tight, and it proves incompressible the short high-entropy
// pieces the builders skip deflate for.
func TestZlibFloor(t *testing.T) {
	codecs := zlibFloorCodecs()
	r := rand.New(rand.NewSource(1))
	for n := 0; n <= 300; n++ {
		constant := bytes.Repeat([]byte{7}, n)
		twoSymbol := make([]byte, n)
		distinct := make([]byte, n)
		periodic := make([]byte, n) // high entropy, but matches shrink it
		random := make([]byte, n)
		for i := 0; i < n; i++ {
			twoSymbol[i] = "ab"[r.Intn(2)]
			distinct[i] = byte(i)
			periodic[i] = byte(i % 16)
		}
		r.Read(random)
		for _, src := range [][]byte{constant, twoSymbol, distinct, periodic, random} {
			checkZlibFloor(t, codecs, src)
		}
	}

	// One literal costs 18 bits at the default level, as the argument
	// counts it: the floor is the stream's length.
	if enc, _ := NewZlib(DefaultZlibLevel).AppendBytes(nil, []byte{'x'}); ZlibFloor([]byte{'x'}) != len(enc) {
		t.Errorf("1-byte input: floor %d, stream %d bytes", ZlibFloor([]byte{'x'}), len(enc))
	}
	// Distinct bytes have no match and the most entropy: deflate can
	// never shorten them, and the floor proves it.
	for _, n := range []int{1, 10, 20, 32, 40} {
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i)
		}
		if f := ZlibFloor(src); f < n {
			t.Errorf("%d distinct bytes: floor %d below the input length", n, f)
		}
	}
}
