package compress

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// DefaultZlibLevel balances throughput against ratio the way the paper's
// "standard Zlib compression" setting does.
const DefaultZlibLevel = 6

// Zlib is the standard DEFLATE-based byte codec. Encoder and decoder
// state is pooled: a fresh deflate state is more than a megabyte, and
// MLOC compresses tens of thousands of small plane pieces per build.
// All methods are safe for concurrent use; the parallel store builder
// shares one Zlib across its encode workers.
type Zlib struct {
	level   int
	writers sync.Pool // *zlib.Writer
	readers sync.Pool // *zlibReader
}

// NewZlib builds a Zlib codec; out-of-range levels clamp to the
// library's valid range.
func NewZlib(level int) *Zlib {
	if level < zlib.HuffmanOnly {
		level = zlib.DefaultCompression
	}
	if level > zlib.BestCompression {
		level = zlib.BestCompression
	}
	return &Zlib{level: level}
}

// Name implements ByteCodec.
func (z *Zlib) Name() string { return "zlib" }

// appendWriter is an io.Writer that appends into a byte slice, so the
// deflate stream lands directly in a caller-owned arena.
type appendWriter struct {
	b []byte
}

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// EncodeBytes implements ByteCodec.
func (z *Zlib) EncodeBytes(src []byte) ([]byte, error) {
	return z.AppendBytes(nil, src)
}

// AppendBytes implements ByteAppender: it compresses src, appending the
// stream to dst.
func (z *Zlib) AppendBytes(dst, src []byte) ([]byte, error) {
	sink := &appendWriter{b: dst}
	w, _ := z.writers.Get().(*zlib.Writer) //mlocvet:ignore closepath -- a writer that failed Write/Close holds untrusted mid-stream deflate state; dropping it is the release
	if w == nil {
		var err error
		w, err = zlib.NewWriterLevel(sink, z.level)
		if err != nil {
			return nil, fmt.Errorf("compress: zlib writer: %w", err)
		}
	} else {
		w.Reset(sink)
	}
	// On Write/Close errors the writer is dropped, not pooled: the
	// deflate state is mid-stream and cannot be trusted until the next
	// Reset, and errors are impossible with an in-memory sink anyway.
	if _, err := w.Write(src); err != nil {
		return nil, fmt.Errorf("compress: zlib write: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("compress: zlib close: %w", err)
	}
	z.writers.Put(w)
	return sink.b, nil
}

// zlibShortMax is the longest input ZlibFloor analyses symbol by
// symbol. AppendBytes makes one Write and one Close, and for inputs this
// short every level then emits exactly one data block: levels 2-9 end a
// block at 16 384 tokens or a full 64 KiB window, and HuffmanOnly, 0 and
// 1 at 65 535 bytes.
const zlibShortMax = 128

// ZlibFloor returns a lower bound on len(z.AppendBytes(nil, src)) that
// holds at every level NewZlib accepts (HuffmanOnly, 0 and 1-9), so a
// caller that keeps deflate's output only when it is shorter than some
// limit can skip the deflate whenever the floor already reaches it.
//
// The bound follows from how compress/zlib and compress/flate (Go 1.24)
// frame a stream: a 2-byte header, the deflate blocks, and a 4-byte
// Adler-32. Close always ends the deflate stream with an empty final
// stored block: 3 header bits, padding to a byte, and 4 bytes of
// LEN/NLEN. A non-empty input first gets at least one data block: 3
// header bits, a first symbol that can only be a literal, and the
// end-of-block code. Fixed Huffman codes spend at least 8 bits on a
// literal and 7 on end-of-block; a dynamic block's header alone is at
// least 26 bits and a stored block at least 40. So any non-empty input
// costs at least 2 + ⌈(18+3)/8⌉ + 4 + 4 = 13 bytes.
//
// A short input (see zlibShortMax) with no repeated 4-byte substring
// does better. Go's encoders emit no match shorter than 4 bytes, so its
// one data block holds literals only, and it costs at least 3 header
// bits plus the cheapest of:
//   - fixed: 8 bits per literal and 7 for end-of-block, 8n+7;
//   - dynamic: 14 bits of HLIT/HDIST/HCLEN, at least four 3-bit
//     code-length-code lengths, at least 1 bit of end-of-block, and the
//     literal codes, which by Gibbs' inequality total at least n·H₀
//     bits for any prefix code (H₀ the zeroth-order entropy of src in
//     bits per byte): 27 + n·H₀;
//   - stored: 5 padding bits, 32 of LEN/NLEN and 8n of data, above the
//     fixed cost.
//
// With the final block's 3 header bits, the 10 bytes of header, LEN/NLEN
// and checksum, and the padding, the floor is
// 10 + ⌈(6 + min(8n+7, 27 + n·H₀))/8⌉. n·H₀ is computed in floating
// point and rounded down after subtracting a margin far above its
// rounding error, so float error can only weaken the bound.
//
// The argument rests on compress/flate's framing, not on the DEFLATE
// format alone (another encoder may skip the empty final block or emit
// 3-byte matches). FuzzZlibFloor and TestZlibFloor check the bound
// against the encoder linked in, and fail after a Go upgrade that
// changes it.
func ZlibFloor(src []byte) int {
	n := len(src)
	switch {
	case n == 0:
		return 0
	case n > zlibShortMax || hasRepeat4(src):
		return 13
	}
	var counts [256]uint8
	for _, c := range src {
		counts[c]++
	}
	nH0 := xlog2x[n]
	for _, c := range counts {
		nH0 -= xlog2x[c]
	}
	bits := 8*n + 7
	if dyn := 27 + int(math.Max(nH0-1e-6, 0)); dyn < bits {
		bits = dyn
	}
	return 10 + (6+bits+7)/8
}

// xlog2x[c] is c·log₂c, for the entropy sums of ZlibFloor.
var xlog2x = func() (t [zlibShortMax + 1]float64) {
	for c := 2; c <= zlibShortMax; c++ {
		t[c] = float64(c) * math.Log2(float64(c))
	}
	return t
}()

// hasRepeat4 reports whether some 4-byte substring occurs twice in src
// (overlaps included), i.e. whether a deflate match of Go's minimum
// length 4 exists. src is at most zlibShortMax bytes, so its at most
// 125 substrings fit an open-addressed table of 256 slots.
func hasRepeat4(src []byte) bool {
	var keys [256]uint32
	var used [256]bool
	for i := 0; i+4 <= len(src); i++ {
		k := binary.LittleEndian.Uint32(src[i:])
		h := uint8((k * 0x9E3779B1) >> 24)
		for used[h] {
			if keys[h] == k {
				return true
			}
			h++
		}
		used[h], keys[h] = true, k
	}
	return false
}

// DecodeBytes implements ByteCodec.
func (z *Zlib) DecodeBytes(data []byte, dst []byte) ([]byte, error) {
	return z.decode(data, dst, -1)
}

// DecodeBytesMax is DecodeBytes with a ceiling on the decompressed
// size: decoding fails once the output would exceed max bytes.
// Decoders of untrusted streams use it so a small corrupt payload
// cannot balloon into an unbounded allocation (a zlib bomb) — the
// caller always knows how many bytes a well-formed stream may hold.
func (z *Zlib) DecodeBytesMax(data []byte, dst []byte, max int64) ([]byte, error) {
	return z.decode(data, dst, max)
}

// zlibReader is one pooled inflate state with the source reader it is
// reset onto and the probe buffer decode uses when dst is full, so a
// decode allocates none of the three.
type zlibReader struct {
	src   bytes.Reader
	zr    io.ReadCloser // implements zlib.Resetter
	probe [64]byte
}

// decode inflates data appending to dst; max < 0 means unlimited. The
// stream is read straight into dst's spare capacity, so a dst sized to
// the expected output is never reallocated: when it is exactly full a
// probe read finds the end of the stream. With a limit, at most max+1
// bytes are ever inflated — one past the limit, so an over-long stream
// is detected rather than silently truncated.
func (z *Zlib) decode(data []byte, dst []byte, max int64) ([]byte, error) {
	r, _ := z.readers.Get().(*zlibReader) //mlocvet:ignore closepath -- the deferred closure below Puts it (closepath does not look inside closures); only a reader whose Reset failed is dropped, its inflate state being undefined
	if r == nil {
		r = &zlibReader{}
	}
	r.src.Reset(data)
	var err error
	if r.zr == nil {
		r.zr, err = zlib.NewReader(&r.src)
	} else {
		err = r.zr.(zlib.Resetter).Reset(&r.src, nil)
	}
	if err != nil {
		// A failed Reset leaves the inflate state undefined; drop the
		// reader rather than pooling it.
		return nil, fmt.Errorf("compress: zlib reader: %w", err)
	}
	// From here the reader is pool-safe whatever happens: the next use
	// Resets it onto a fresh stream.
	defer func() {
		r.src.Reset(nil) // a pooled reader must not pin the caller's buffer
		z.readers.Put(r)
	}()

	start := len(dst)
	for {
		room := dst[len(dst):cap(dst)]
		if len(room) == 0 {
			room = r.probe[:]
		}
		if max >= 0 {
			if left := max + 1 - int64(len(dst)-start); int64(len(room)) > left {
				room = room[:left]
			}
		}
		n, rerr := r.zr.Read(room)
		dst = append(dst, room[:n]...) // onto itself unless room is the probe
		if max >= 0 && int64(len(dst)-start) > max {
			_ = r.zr.Close() //mlocvet:ignore uncheckederr -- the limit-exceeded error being returned takes precedence over any close error
			return nil, fmt.Errorf("compress: zlib output exceeds %d-byte limit", max)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			_ = r.zr.Close() //mlocvet:ignore uncheckederr -- the decode error already being returned takes precedence over any close error
			return nil, fmt.Errorf("compress: zlib decode: %w", rerr)
		}
	}
	if err := r.zr.Close(); err != nil {
		return nil, fmt.Errorf("compress: zlib close: %w", err)
	}
	// Inflate pulls single bytes from a bytes.Reader, so whatever is left
	// was never part of the stream.
	if n := r.src.Len(); n != 0 {
		return nil, fmt.Errorf("compress: zlib stream has %d trailing bytes", n)
	}
	return dst, nil
}
