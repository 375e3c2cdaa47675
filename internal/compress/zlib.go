package compress

import (
	"bytes"
	"compress/zlib"
	"fmt"
	"io"
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
