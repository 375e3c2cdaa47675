package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"mloc/internal/bspline"
)

// IsabelaConfig parameterizes the ISABELA-style lossy codec.
type IsabelaConfig struct {
	// WindowSize is the number of values fitted per spline window.
	WindowSize int
	// NumCoefs is the B-spline coefficient count per window.
	NumCoefs int
	// RelError is the guaranteed per-point relative error bound ε
	// (relative to max(|value|, ScaleFloor·window-max)).
	RelError float64
	// ScaleFloor is the fraction of the window's max |value| used as an
	// absolute error floor for near-zero points, where pointwise
	// relative error is not meaningful.
	ScaleFloor float64
	// ZlibLevel sets the entropy coding level for the residual stream.
	ZlibLevel int
}

// DefaultIsabelaConfig mirrors the published ISABELA defaults: 1024-
// point windows, 30 coefficients, 1% error rate.
func DefaultIsabelaConfig() IsabelaConfig {
	return IsabelaConfig{
		WindowSize: 1024,
		NumCoefs:   30,
		RelError:   0.01,
		ScaleFloor: 1e-6,
		ZlibLevel:  DefaultZlibLevel,
	}
}

// Isabela is a lossy float codec modeled on ISABELA (Lakshminarasimhan
// et al., Euro-Par 2011): each window of values is sorted into a
// monotone curve, approximated by a cubic B-spline, and the sorting
// permutation plus quantized residuals are stored so the decoder meets
// a user-specified per-point error bound.
type Isabela struct {
	cfg IsabelaConfig
	zl  *Zlib
	// scratch pools per-window encode state (permutation, sorted copy,
	// spline samples, residual streams) so builds encoding thousands of
	// windows stop allocating them fresh; encoders may run from many
	// workers at once.
	scratch sync.Pool // *isaScratch
}

// isaScratch is one encoder's reusable per-window state.
type isaScratch struct {
	perm     []uint32
	sorted   []float64
	approx   []float64
	resid    []byte
	residEnc []byte
}

// NewIsabela constructs the codec, clamping degenerate parameters to
// usable minimums.
func NewIsabela(cfg IsabelaConfig) *Isabela {
	if cfg.WindowSize < 8 {
		cfg.WindowSize = 8
	}
	if cfg.NumCoefs < bspline.Degree+1 {
		cfg.NumCoefs = bspline.Degree + 1
	}
	if cfg.NumCoefs > cfg.WindowSize {
		cfg.NumCoefs = cfg.WindowSize
	}
	if cfg.RelError <= 0 {
		cfg.RelError = 0.01
	}
	if cfg.ScaleFloor <= 0 {
		cfg.ScaleFloor = 1e-6
	}
	return &Isabela{cfg: cfg, zl: NewZlib(cfg.ZlibLevel)}
}

// Name implements FloatCodec.
func (c *Isabela) Name() string { return "isabela" }

// Window flags in the encoded stream.
const (
	isaWindowSpline = 0
	isaWindowRaw    = 1
)

// effNumCoefs adapts the coefficient count to the window length so
// short windows (small chunk∩bin units) still compress: roughly one
// coefficient per eight samples, floored at the cubic minimum and
// capped at the configured count. Deterministic in wlen, so the
// decoder recomputes it without extra storage.
func effNumCoefs(wlen, configured int) int {
	n := wlen / 8
	if n < bspline.Degree+1 {
		n = bspline.Degree + 1
	}
	if n > configured {
		n = configured
	}
	return n
}

// EncodeFloats implements FloatCodec. Layout:
//
//	uvarint count, uvarint windowSize, uvarint numCoefs, 8-byte ε
//	per window: flag byte, then either raw floats or
//	  numCoefs float64 coefficients,
//	  bit-packed permutation (count entries of ceil(log2 count) bits),
//	  uvarint residualLen, zlib(zigzag-varint residual stream)
func (c *Isabela) EncodeFloats(values []float64) ([]byte, error) {
	return c.AppendFloats(nil, values)
}

// AppendFloats implements FloatAppender with pooled per-window scratch
// buffers, appending the stream to dst.
func (c *Isabela) AppendFloats(dst []byte, values []float64) ([]byte, error) {
	sc, _ := c.scratch.Get().(*isaScratch)
	if sc == nil {
		sc = new(isaScratch)
	}
	defer c.scratch.Put(sc)
	out := putUvarint(dst, uint64(len(values)))
	out = putUvarint(out, uint64(c.cfg.WindowSize))
	out = putUvarint(out, uint64(c.cfg.NumCoefs))
	var eps [8]byte
	binary.LittleEndian.PutUint64(eps[:], math.Float64bits(c.cfg.RelError))
	out = append(out, eps[:]...)

	for start := 0; start < len(values); start += c.cfg.WindowSize {
		end := start + c.cfg.WindowSize
		if end > len(values) {
			end = len(values)
		}
		var err error
		out, err = c.encodeWindow(out, values[start:end], sc)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *Isabela) encodeWindow(out []byte, w []float64, sc *isaScratch) ([]byte, error) {
	ncoefs := effNumCoefs(len(w), c.cfg.NumCoefs)
	if len(w) < 8 || len(w) < ncoefs {
		// Tiny tail window: store raw.
		out = append(out, isaWindowRaw)
		for _, v := range w {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			out = append(out, b[:]...)
		}
		return out, nil
	}
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("compress: isabela cannot encode non-finite value %v", v)
		}
	}
	n := len(w)
	// Sort with permutation: perm[i] = original index of i-th smallest.
	perm := sc.perm[:0]
	for i := 0; i < n; i++ {
		perm = append(perm, uint32(i))
	}
	sc.perm = perm
	sort.Slice(perm, func(a, b int) bool { return w[perm[a]] < w[perm[b]] })
	sorted := sc.sorted
	if cap(sorted) < n {
		sorted = make([]float64, n)
	} else {
		sorted = sorted[:n]
	}
	sc.sorted = sorted
	var maxAbs float64
	for i, p := range perm {
		sorted[i] = w[p]
		if a := math.Abs(w[p]); a > maxAbs {
			maxAbs = a
		}
	}

	sp, err := bspline.Fit(sorted, ncoefs)
	if err != nil {
		return nil, fmt.Errorf("compress: isabela window fit: %w", err)
	}
	approx := sp.EvalN(n, sc.approx[:0])
	sc.approx = approx

	floor := maxAbs * c.cfg.ScaleFloor
	if floor <= 0 {
		floor = 1 // all-zero window; any scale works, residuals are 0
	}
	// Quantize residuals against a scale the decoder can recompute.
	resid := sc.resid[:0]
	for i := 0; i < n; i++ {
		scale := math.Abs(approx[i])
		if scale < floor {
			scale = floor
		}
		q := int64(math.Round((sorted[i] - approx[i]) / (c.cfg.RelError * scale)))
		resid = binary.AppendVarint(resid, q)
	}
	sc.resid = resid
	residEnc, err := c.zl.AppendBytes(sc.residEnc[:0], resid)
	if err != nil {
		return nil, err
	}
	sc.residEnc = residEnc

	out = append(out, isaWindowSpline)
	// Persist the scale floor: the decoder cannot recompute it exactly
	// (it derives from the true values' max magnitude, which decoding
	// only approximates), and both sides must use identical scales for
	// the quantized residuals to reconstruct correctly.
	var fb [8]byte
	binary.LittleEndian.PutUint64(fb[:], math.Float64bits(floor))
	out = append(out, fb[:]...)
	for _, cf := range sp.Coefs() {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(cf))
		out = append(out, b[:]...)
	}
	out = packBits(out, perm, bitsFor(n))
	out = putUvarint(out, uint64(len(residEnc)))
	out = append(out, residEnc...)
	return out, nil
}

// DecodeFloats implements FloatCodec.
func (c *Isabela) DecodeFloats(data []byte, dst []float64) ([]float64, error) {
	count, n, err := uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("compress: isabela header: %w", err)
	}
	data = data[n:]
	window, n, err := uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("compress: isabela header: %w", err)
	}
	data = data[n:]
	ncoefs, n, err := uvarint(data)
	if err != nil {
		return nil, fmt.Errorf("compress: isabela header: %w", err)
	}
	data = data[n:]
	if len(data) < 8 {
		return nil, fmt.Errorf("compress: isabela header: truncated epsilon")
	}
	relErr := math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	if window == 0 || ncoefs == 0 {
		return nil, fmt.Errorf("compress: isabela header: zero window or coefficient count")
	}
	// The value count comes from an untrusted header and bounds every
	// allocation below (window lengths never exceed it, and the
	// effective coefficient count is clamped to wlen/8); an honest
	// stream encodes each value in at least one byte, so cap it by the
	// payload size to keep corrupt input from triggering enormous
	// allocations or overflowing the size arithmetic.
	if count > uint64(len(data)) {
		return nil, fmt.Errorf("compress: isabela declares %d values in %d bytes", count, len(data))
	}
	// window and ncoefs are also attacker-controlled; unclamped, a
	// value above MaxInt64 wraps the int() conversions below negative
	// and panics the window allocations. A window never covers more
	// than count values and never carries more coefficients than
	// values, so clamping to the (already bounded) count is lossless
	// for honest streams.
	if window > count {
		window = count
	}
	if ncoefs > window {
		ncoefs = window
	}

	remaining := int(count)
	for remaining > 0 {
		wlen := int(window)
		if wlen > remaining {
			wlen = remaining
		}
		dst, data, err = c.decodeWindow(dst, data, wlen, int(ncoefs), relErr)
		if err != nil {
			return nil, err
		}
		remaining -= wlen
	}
	return dst, nil
}

func (c *Isabela) decodeWindow(dst []float64, data []byte, wlen, ncoefs int, relErr float64) ([]float64, []byte, error) {
	if len(data) < 1 {
		return nil, nil, fmt.Errorf("compress: isabela window: missing flag")
	}
	flag := data[0]
	data = data[1:]
	switch flag {
	case isaWindowRaw:
		if len(data) < 8*wlen {
			return nil, nil, fmt.Errorf("compress: isabela raw window truncated")
		}
		for i := 0; i < wlen; i++ {
			dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
		}
		return dst, data[8*wlen:], nil
	case isaWindowSpline:
		ncoefs = effNumCoefs(wlen, ncoefs)
		if len(data) < 8 {
			return nil, nil, fmt.Errorf("compress: isabela scale floor truncated")
		}
		floor := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		if !(floor > 0) || math.IsInf(floor, 0) {
			return nil, nil, fmt.Errorf("compress: isabela: invalid scale floor %v", floor)
		}
		// Coefficients.
		if len(data) < 8*ncoefs {
			return nil, nil, fmt.Errorf("compress: isabela coefficients truncated")
		}
		coefs := make([]float64, ncoefs)
		for i := range coefs {
			coefs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		data = data[8*ncoefs:]
		sp, err := bspline.FromCoefs(coefs)
		if err != nil {
			return nil, nil, fmt.Errorf("compress: isabela: %w", err)
		}
		// Permutation.
		perm, rest, err := unpackBits(data, wlen, bitsFor(wlen))
		if err != nil {
			return nil, nil, fmt.Errorf("compress: isabela permutation: %w", err)
		}
		data = rest
		// Residuals.
		rlen, n, err := uvarint(data)
		if err != nil {
			return nil, nil, fmt.Errorf("compress: isabela residual length: %w", err)
		}
		data = data[n:]
		if uint64(len(data)) < rlen {
			return nil, nil, fmt.Errorf("compress: isabela residuals truncated")
		}
		// A well-formed stream holds one varint per window value, so the
		// inflated size is bounded; cap the decode so a corrupt stream
		// cannot decompress without limit.
		resid, err := c.zl.DecodeBytesMax(data[:rlen], nil, int64(wlen)*binary.MaxVarintLen64)
		if err != nil {
			return nil, nil, fmt.Errorf("compress: isabela residuals: %w", err)
		}
		data = data[rlen:]

		approx := sp.EvalN(wlen, nil)
		sorted := make([]float64, wlen)
		for i := 0; i < wlen; i++ {
			q, n := binary.Varint(resid)
			if n <= 0 {
				return nil, nil, fmt.Errorf("compress: isabela residual stream truncated at %d", i)
			}
			resid = resid[n:]
			scale := math.Abs(approx[i])
			if scale < floor {
				scale = floor
			}
			sorted[i] = approx[i] + float64(q)*relErr*scale
		}
		// Un-permute.
		base := len(dst)
		dst = append(dst, make([]float64, wlen)...)
		for i, p := range perm {
			if int(p) >= wlen {
				return nil, nil, fmt.Errorf("compress: isabela permutation entry %d out of range", p)
			}
			dst[base+int(p)] = sorted[i]
		}
		return dst, data, nil
	default:
		return nil, nil, fmt.Errorf("compress: isabela window: bad flag %d", flag)
	}
}

// bitsFor returns the number of bits needed to represent indices 0..n-1.
func bitsFor(n int) uint {
	b := uint(1)
	for (1 << b) < n {
		b++
	}
	return b
}

// packBits appends vals, each using `bits` bits, LSB-first, to dst.
func packBits(dst []byte, vals []uint32, bits uint) []byte {
	var acc uint64
	var nacc uint
	for _, v := range vals {
		acc |= uint64(v) << nacc
		nacc += bits
		for nacc >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nacc -= 8
		}
	}
	if nacc > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// unpackBits reads count values of `bits` bits from data, returning the
// values and the remaining bytes.
func unpackBits(data []byte, count int, bits uint) ([]uint32, []byte, error) {
	need := (count*int(bits) + 7) / 8
	if len(data) < need {
		return nil, nil, fmt.Errorf("compress: bit-packed stream needs %d bytes, have %d", need, len(data))
	}
	vals := make([]uint32, count)
	var acc uint64
	var nacc uint
	pos := 0
	mask := uint64(1)<<bits - 1
	for i := 0; i < count; i++ {
		for nacc < bits {
			acc |= uint64(data[pos]) << nacc
			pos++
			nacc += 8
		}
		vals[i] = uint32(acc & mask)
		acc >>= bits
		nacc -= bits
	}
	return vals, data[need:], nil
}

// DecodedScale returns the effective error scale the codec guarantees
// for a value v within a window whose max magnitude is maxAbs: the
// pointwise bound is RelError relative to max(|v|, ScaleFloor·maxAbs).
func (c *Isabela) DecodedScale(v, maxAbs float64) float64 {
	floor := maxAbs * c.cfg.ScaleFloor
	if floor <= 0 {
		floor = 1
	}
	s := math.Abs(v)
	if s < floor {
		s = floor
	}
	return s
}
