// Package compress provides the pluggable compression layer of MLOC
// (paper §III-B4). Two codec shapes exist:
//
//   - ByteCodec compresses opaque byte streams. MLOC uses byte codecs
//     on PLoD byte-planes (the MLOC-COL configuration compresses each
//     byte column with Zlib, storing the known-incompressible low-order
//     planes raw).
//   - FloatCodec compresses windows of float64 values directly. The
//     ISOBAR-style lossless codec and the ISABELA-style lossy codec are
//     float codecs.
//
// Every codec produces self-contained buffers: decoding needs only the
// encoded bytes.
package compress

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ByteCodec compresses raw byte buffers.
type ByteCodec interface {
	// Name identifies the codec in configs and file metadata.
	Name() string
	// EncodeBytes compresses src into a self-contained buffer.
	EncodeBytes(src []byte) ([]byte, error)
	// DecodeBytes decompresses data, appending into dst.
	DecodeBytes(data []byte, dst []byte) ([]byte, error)
}

// FloatCodec compresses float64 windows.
type FloatCodec interface {
	// Name identifies the codec in configs and file metadata.
	Name() string
	// EncodeFloats compresses values into a self-contained buffer.
	EncodeFloats(values []float64) ([]byte, error)
	// DecodeFloats decompresses data, appending into dst.
	DecodeFloats(data []byte, dst []float64) ([]float64, error)
}

// ByteAppender is an optional ByteCodec extension: AppendBytes encodes
// src appending the self-contained buffer to dst, letting callers reuse
// one growing arena instead of allocating a fresh buffer per piece. The
// parallel store builder threads its pooled scratch through this path.
type ByteAppender interface {
	AppendBytes(dst, src []byte) ([]byte, error)
}

// FloatAppender is the FloatCodec counterpart of ByteAppender.
type FloatAppender interface {
	AppendFloats(dst []byte, values []float64) ([]byte, error)
}

// AppendBytes encodes src with c, appending to dst. Codecs implementing
// ByteAppender encode straight into dst; others pay one intermediate
// buffer.
func AppendBytes(c ByteCodec, dst, src []byte) ([]byte, error) {
	if a, ok := c.(ByteAppender); ok {
		return a.AppendBytes(dst, src)
	}
	enc, err := c.EncodeBytes(src)
	if err != nil {
		return nil, err
	}
	return append(dst, enc...), nil
}

// AppendFloats encodes values with c, appending to dst; the FloatCodec
// analogue of AppendBytes.
func AppendFloats(c FloatCodec, dst []byte, values []float64) ([]byte, error) {
	if a, ok := c.(FloatAppender); ok {
		return a.AppendFloats(dst, values)
	}
	enc, err := c.EncodeFloats(values)
	if err != nil {
		return nil, err
	}
	return append(dst, enc...), nil
}

// BoundedByteDecoder is an optional ByteCodec extension for codecs whose
// output can exceed their input: DecodeBytesMax is DecodeBytes that
// fails once the output would pass max bytes.
type BoundedByteDecoder interface {
	DecodeBytesMax(data, dst []byte, max int64) ([]byte, error)
}

// DecodeBytesMax decodes data with c, appending to dst, for a caller
// that knows a well-formed stream holds at most max bytes. A codec that
// can overrun implements BoundedByteDecoder and stops at max+1; one that
// does not (RawBytes: output is the input) cannot produce more than the
// caller already read.
func DecodeBytesMax(c ByteCodec, data, dst []byte, max int64) ([]byte, error) {
	if b, ok := c.(BoundedByteDecoder); ok {
		return b.DecodeBytesMax(data, dst, max)
	}
	return c.DecodeBytes(data, dst)
}

// RawBytes is the identity byte codec (used for incompressible planes).
type RawBytes struct{}

// Name implements ByteCodec.
func (RawBytes) Name() string { return "raw" }

// EncodeBytes implements ByteCodec; it copies src.
func (RawBytes) EncodeBytes(src []byte) ([]byte, error) {
	return append([]byte(nil), src...), nil
}

// AppendBytes implements ByteAppender.
func (RawBytes) AppendBytes(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}

// DecodeBytes implements ByteCodec.
func (RawBytes) DecodeBytes(data []byte, dst []byte) ([]byte, error) {
	return append(dst, data...), nil
}

// RawFloats stores float64 values as little-endian bytes, uncompressed —
// the baseline float codec and the storage format of the seq-scan
// comparator.
type RawFloats struct{}

// Name implements FloatCodec.
func (RawFloats) Name() string { return "raw" }

// EncodeFloats implements FloatCodec.
func (RawFloats) EncodeFloats(values []float64) ([]byte, error) {
	return RawFloats{}.AppendFloats(make([]byte, 0, 8*len(values)), values)
}

// AppendFloats implements FloatAppender.
func (RawFloats) AppendFloats(dst []byte, values []float64) ([]byte, error) {
	for _, v := range values {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// DecodeFloats implements FloatCodec.
func (RawFloats) DecodeFloats(data []byte, dst []float64) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("compress: raw float buffer length %d not a multiple of 8", len(data))
	}
	for i := 0; i < len(data); i += 8 {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
	}
	return dst, nil
}

// NewFloatCodec builds a float codec by name with default parameters.
// Recognized names: "raw", "isobar", "isabela".
func NewFloatCodec(name string) (FloatCodec, error) {
	switch name {
	case "raw":
		return RawFloats{}, nil
	case "isobar":
		return NewIsobar(DefaultZlibLevel), nil
	case "isabela":
		return NewIsabela(DefaultIsabelaConfig()), nil
	default:
		return nil, fmt.Errorf("compress: unknown float codec %q", name)
	}
}

// NewByteCodec builds a byte codec by name with default parameters.
// Recognized names: "raw", "zlib".
func NewByteCodec(name string) (ByteCodec, error) {
	switch name {
	case "raw":
		return RawBytes{}, nil
	case "zlib":
		return NewZlib(DefaultZlibLevel), nil
	default:
		return nil, fmt.Errorf("compress: unknown byte codec %q", name)
	}
}

// putUvarint appends a uvarint to dst.
func putUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	return append(dst, buf[:n]...)
}

// uvarint reads a uvarint from data, returning the value and the number
// of bytes consumed, or an error on truncation.
func uvarint(data []byte) (uint64, int, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, fmt.Errorf("compress: truncated or malformed uvarint")
	}
	return v, n, nil
}
