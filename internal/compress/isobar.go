package compress

import (
	"fmt"
	"sync"

	"mloc/internal/plod"
)

// Isobar is a lossless float codec modeled on the ISOBAR preconditioner
// (Schendel et al., ICDE 2012): the bytes of each double are regrouped
// into byte-planes, each plane's compressibility is analyzed, and only
// planes that pass the analysis are run through the entropy coder —
// incompressible low-order mantissa planes are stored verbatim, which
// both speeds the codec up and avoids zlib inflating noise-like data.
type Isobar struct {
	zl *Zlib
	// minGain is the minimum fraction a plane must shrink by on a
	// sampled trial for zlib to be used on it.
	minGain float64
	// sampleLen bounds the trial-compression sample per plane.
	sampleLen int
	// scratch pools per-encode state (plane split buffers and the
	// trial/full compression buffer) so a build encoding thousands of
	// units allocates none of it per call; encoders may run from many
	// workers at once.
	scratch sync.Pool // *isobarScratch
}

// isobarScratch is one encoder's reusable state.
type isobarScratch struct {
	split plod.SplitScratch
	enc   []byte
}

// NewIsobar constructs an Isobar codec with the given zlib level.
func NewIsobar(level int) *Isobar {
	return &Isobar{zl: NewZlib(level), minGain: 0.05, sampleLen: 4096}
}

// Name implements FloatCodec.
func (c *Isobar) Name() string { return "isobar" }

// EncodeFloats implements FloatCodec. Layout:
//
//	uvarint count
//	per plane: 1 flag byte (0 raw, 1 zlib), uvarint encodedLen, payload
func (c *Isobar) EncodeFloats(values []float64) ([]byte, error) {
	return c.AppendFloats(nil, values)
}

// AppendFloats implements FloatAppender with pooled scratch: the plane
// split and the trial/full compression buffers are reused across calls,
// and every plane payload is appended straight into dst. A plane that
// fits the sample is deflated at most once.
func (c *Isobar) AppendFloats(dst []byte, values []float64) ([]byte, error) {
	sc, _ := c.scratch.Get().(*isobarScratch)
	if sc == nil {
		sc = new(isobarScratch)
	}
	defer c.scratch.Put(sc)
	planes := sc.split.Split(values)
	out := putUvarint(dst, uint64(len(values)))
	for p := 0; p < plod.NumPlanes; p++ {
		plane := planes[p]
		var payload []byte
		flag := byte(0)
		if c.compressible(plane, sc) {
			// A plane no longer than the sample was compressed whole by
			// the trial; only a longer one needs a second deflate.
			enc := sc.enc
			if len(plane) > c.sampleLen {
				var err error
				if enc, err = c.zl.AppendBytes(sc.enc[:0], plane); err != nil {
					return nil, err
				}
				sc.enc = enc
			}
			// Keep the compressed form only when it actually wins on
			// the full plane, not just the sample.
			if float64(len(enc)) < float64(len(plane))*(1-c.minGain) {
				payload = enc
				flag = 1
			}
		}
		if flag == 0 {
			payload = plane
		}
		out = append(out, flag)
		out = putUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	}
	return out, nil
}

// compressible runs the ISOBAR-style analysis: trial-compress a sample
// of the plane and require a minimum gain. A sample whose ZlibFloor
// already misses the gain fails without the trial; otherwise the trial's
// output is left in the scratch's encode buffer.
func (c *Isobar) compressible(plane []byte, sc *isobarScratch) bool {
	sample := plane
	if len(sample) > c.sampleLen {
		sample = sample[:c.sampleLen]
	}
	limit := float64(len(sample)) * (1 - c.minGain)
	if float64(ZlibFloor(sample)) >= limit {
		return false
	}
	enc, err := c.zl.AppendBytes(sc.enc[:0], sample)
	if err != nil {
		return false
	}
	sc.enc = enc
	return float64(len(enc)) < limit
}

// DecodeFloats implements FloatCodec.
func (c *Isobar) DecodeFloats(data []byte, dst []float64) ([]float64, error) {
	count, n, err := uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("compress: isobar header: %w", err)
	}
	data = data[n:]
	// The declared count sizes every plane and the output allocation,
	// and it comes from an untrusted stream. Plane 0 alone stores at
	// least one byte per value, and DEFLATE expands at most ~1032:1, so
	// any count beyond len(data)*1032 cannot be backed by real data —
	// reject it before the per-plane size arithmetic can overflow.
	const maxInflate = 1032
	if count > uint64(len(data))*maxInflate {
		return nil, fmt.Errorf("compress: isobar header: count %d implausible for %d payload bytes", count, len(data))
	}
	planes := make([][]byte, plod.NumPlanes)
	for p := 0; p < plod.NumPlanes; p++ {
		if len(data) < 1 {
			return nil, fmt.Errorf("compress: isobar plane %d: missing flag", p)
		}
		flag := data[0]
		data = data[1:]
		plen, n, err := uvarint(data)
		if err != nil {
			return nil, fmt.Errorf("compress: isobar plane %d: %w", p, err)
		}
		data = data[n:]
		if uint64(len(data)) < plen {
			return nil, fmt.Errorf("compress: isobar plane %d: truncated payload", p)
		}
		payload := data[:plen]
		data = data[plen:]
		want := int(count) * plod.PlaneWidth(p)
		switch flag {
		case 0:
			planes[p] = payload
		case 1:
			// Bound the inflated size by the plane's expected length so
			// a corrupt stream cannot decompress without limit.
			dec, err := c.zl.DecodeBytesMax(payload, nil, int64(want))
			if err != nil {
				return nil, fmt.Errorf("compress: isobar plane %d: %w", p, err)
			}
			planes[p] = dec
		default:
			return nil, fmt.Errorf("compress: isobar plane %d: bad flag %d", p, flag)
		}
		if len(planes[p]) != want {
			return nil, fmt.Errorf("compress: isobar plane %d: %d bytes, want %d", p, len(planes[p]), want)
		}
	}
	return plod.AssembleFull(planes, int(count), dst), nil
}
