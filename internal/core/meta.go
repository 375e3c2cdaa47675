package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"mloc/internal/grid"
	"mloc/internal/plod"
)

// unitMeta locates one storage unit — the points of one chunk that fall
// in one bin — inside the bin's index and data files. In planes mode a
// unit has seven data pieces (one per PLoD byte plane); in floats mode
// it has one. The meta stores the lengths it cannot derive (indexLen,
// pieceLen[0]); binMeta.place derives every offset.
type unitMeta struct {
	chunkID int64
	count   int32
	// indexOff/indexLen locate the unit's positional index (delta-varint
	// intra-chunk offsets) in the bin's index file.
	indexOff, indexLen int64
	// pieceOff/pieceLen locate the data pieces in the bin's data file.
	pieceOff []int64
	pieceLen []int64
}

// binMeta describes one bin's subfiles and storage units, in storage
// order (chunks sorted by the configured curve).
type binMeta struct {
	units []unitMeta
	// unitByChunk maps chunkID to position in units.
	unitByChunk map[int64]int
	dataSize    int64
	indexSize   int64
}

// setPieces gives every unit np piece extents, carved from one slab.
func (bm *binMeta) setPieces(np int) {
	slab := make([]int64, 2*np*len(bm.units))
	for j := range bm.units {
		lo := 2 * np * j
		bm.units[j].pieceOff = slab[lo : lo+np : lo+np]
		bm.units[j].pieceLen = slab[lo+np : lo+2*np : lo+2*np]
	}
}

// place is the bin's file layout, derived from the unit lengths alone:
// index runs back to back in unit order, and data pieces plane-major
// when planesFirst (V-M-S: all plane-0 pieces, then all plane-1
// pieces, ..., so a PLoD-level read is contiguous) or unit-major
// otherwise (V-S-M: each chunk's planes together, so a full-precision
// chunk read is). It sets every indexOff and pieceOff and the bin's
// indexSize and dataSize. The writer copies pieces to these offsets and
// Open derives them the same way, so the meta stores no offset.
func (bm *binMeta) place(planesFirst bool) {
	bm.indexSize, bm.dataSize = 0, 0
	for j := range bm.units {
		u := &bm.units[j]
		u.indexOff = bm.indexSize
		bm.indexSize += u.indexLen
	}
	put := func(u *unitMeta, p int) {
		u.pieceOff[p] = bm.dataSize
		bm.dataSize += u.pieceLen[p]
	}
	if planesFirst && len(bm.units) > 0 {
		for p := range bm.units[0].pieceLen {
			for j := range bm.units {
				put(&bm.units[j], p)
			}
		}
		return
	}
	for j := range bm.units {
		for p := range bm.units[j].pieceLen {
			put(&bm.units[j], p)
		}
	}
}

// encodeBinIndex fills bm's unit metadata from the bin's raw units (in
// storage order) and returns the bin's positional index file — per unit,
// the ascending intra-chunk offsets as delta uvarints — and how many
// offsets it holds. Build's encode workers call it concurrently, one
// worker per bin.
func encodeBinIndex(bm *binMeta, units []rawUnit) (index []byte, offsets int64) {
	bm.units = make([]unitMeta, len(units))
	bm.unitByChunk = make(map[int64]int, len(units))
	var indexBuf []byte
	for j, u := range units {
		um := &bm.units[j]
		um.chunkID = u.chunkID
		um.count = int32(len(u.offsets))
		offsets += int64(len(u.offsets))
		mark := len(indexBuf)
		prev := int32(0)
		for _, off := range u.offsets {
			indexBuf = binary.AppendUvarint(indexBuf, uint64(off-prev))
			prev = off
		}
		um.indexLen = int64(len(indexBuf) - mark)
		bm.unitByChunk[u.chunkID] = j
	}
	return indexBuf, offsets
}

// storeMeta is the full persistent description of a built variable
// store; it is serialized to <prefix>/meta and its size counts toward
// the index overhead in the storage experiments.
type storeMeta struct {
	shape     grid.Shape
	chunkSize []int
	order     Order
	curve     string
	mode      Mode
	codecName string
	binBounds []float64
	bins      []binMeta
}

const (
	metaMagic = uint32(0x4d4c4f43) // "MLOC"
	// metaVersion is the one meta format Open serves. A format change
	// bumps it and deletes the reader of the old one.
	metaVersion = uint32(2)
)

// marshal serializes the metadata: the magic and version as fixed-width
// little-endian words, the header, then per unit four varints — chunk
// delta, point count, index length and piece-0 length. Everything else
// is derived on read: planes 1..6 are stored raw (compressPlanes is 1),
// so their length is count × width; a plane-0 piece is compressed
// exactly when it is shorter than count × 2, because the builder keeps
// the compressed form only when it is strictly smaller; and place lays
// out every offset.
func (m *storeMeta) marshal() []byte {
	nunits := 0
	for i := range m.bins {
		nunits += len(m.bins[i].units)
	}
	out := make([]byte, 0, 64+8*len(m.binBounds)+12*nunits)
	out = binary.LittleEndian.AppendUint32(out, metaMagic)
	out = binary.LittleEndian.AppendUint32(out, metaVersion)
	out = appendUvarint(out, uint64(len(m.shape)))
	for _, d := range m.shape {
		out = appendUvarint(out, uint64(d))
	}
	for _, d := range m.chunkSize {
		out = appendUvarint(out, uint64(d))
	}
	out = appendString(out, m.order.String())
	out = appendString(out, m.curve)
	out = appendString(out, string(m.mode))
	out = appendString(out, m.codecName)
	out = appendUvarint(out, uint64(len(m.binBounds)))
	for _, b := range m.binBounds {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(b))
	}
	out = appendUvarint(out, uint64(len(m.bins)))
	for i := range m.bins {
		bm := &m.bins[i]
		out = appendUvarint(out, uint64(len(bm.units)))
		var prevChunk int64
		for j := range bm.units {
			u := &bm.units[j]
			// Chunk ids are ascending in curve order per bin only when
			// the curve is row-major, so store deltas zig-zagged.
			out = binary.AppendVarint(out, u.chunkID-prevChunk)
			prevChunk = u.chunkID
			out = appendUvarint(out, uint64(u.count))
			out = appendUvarint(out, uint64(u.indexLen))
			out = appendUvarint(out, uint64(u.pieceLen[0]))
		}
	}
	return out
}

// unmarshalStoreMeta parses metadata written by marshal and lays out
// every bin with place.
func unmarshalStoreMeta(data []byte) (*storeMeta, error) {
	r := &byteReader{data: data}
	if magic := r.u32(); magic != metaMagic {
		return nil, fmt.Errorf("core: bad meta magic %#x", magic)
	}
	if v := r.u32(); v != metaVersion {
		return nil, fmt.Errorf("core: meta format version %d, this reader serves only version %d", v, metaVersion)
	}
	m := &storeMeta{}
	dims := int(r.uvarint())
	if dims <= 0 || dims > 16 {
		return nil, fmt.Errorf("core: implausible dims %d in meta", dims)
	}
	m.shape = make(grid.Shape, dims)
	for d := range m.shape {
		m.shape[d] = int(r.uvarint())
	}
	m.chunkSize = make([]int, dims)
	for d := range m.chunkSize {
		m.chunkSize[d] = int(r.uvarint())
	}
	orderStr := r.str()
	order, err := ParseOrder(orderStr)
	if err != nil {
		return nil, fmt.Errorf("core: meta order: %w", err)
	}
	m.order = order
	m.curve = r.str()
	m.mode = Mode(r.str())
	m.codecName = r.str()
	var np int
	switch m.mode {
	case ModePlanes:
		np = plod.NumPlanes
	case ModeFloats:
		np = 1
	default:
		return nil, fmt.Errorf("core: meta has unknown mode %q", m.mode)
	}
	// Every count below sizes an allocation, and the counts come from
	// an untrusted file: bound each by what the remaining bytes could
	// possibly encode, so corrupt metadata fails cleanly instead of
	// triggering enormous allocations.
	nb := int(r.uvarint())
	if nb < 0 || nb > r.remaining()/8 {
		return nil, fmt.Errorf("core: meta declares %d bin bounds with %d bytes left", nb, r.remaining())
	}
	m.binBounds = make([]float64, nb)
	for i := range m.binBounds {
		m.binBounds[i] = math.Float64frombits(r.u64())
	}
	nbins := int(r.uvarint())
	if nbins < 0 || nbins > r.remaining() {
		return nil, fmt.Errorf("core: meta declares %d bins with %d bytes left", nbins, r.remaining())
	}
	m.bins = make([]binMeta, nbins)
	for i := range m.bins {
		bm := &m.bins[i]
		nunits := int(r.uvarint())
		// A serialized unit takes at least 4 bytes, one per varint.
		if nunits < 0 || nunits > r.remaining()/4 {
			return nil, fmt.Errorf("core: meta bin %d declares %d units with %d bytes left",
				i, nunits, r.remaining())
		}
		bm.units = make([]unitMeta, nunits)
		bm.unitByChunk = make(map[int64]int, nunits)
		bm.setPieces(np)
		var prevChunk int64
		for j := range bm.units {
			u := &bm.units[j]
			u.chunkID = prevChunk + r.varint()
			prevChunk = u.chunkID
			// Counts and lengths size allocations and seed file reads;
			// capping them at MaxInt32 keeps the narrowing conversions
			// and place's sums from wrapping.
			u.count = int32(r.uvarintMax(math.MaxInt32))
			u.indexLen = int64(r.uvarintMax(math.MaxInt32))
			u.pieceLen[0] = int64(r.uvarintMax(math.MaxInt32))
			// Every offset takes at least one index byte. A query sizes
			// its match buffer by the units' counts before it reads an
			// index, so a count the index cannot back is refused here.
			if r.err == nil && int64(u.count) > u.indexLen {
				return nil, fmt.Errorf("core: meta bin %d unit %d declares %d points in %d index bytes",
					i, j, u.count, u.indexLen)
			}
			for p := 1; p < np; p++ {
				u.pieceLen[p] = int64(u.count) * int64(plod.PlaneWidth(p))
			}
			bm.unitByChunk[u.chunkID] = j
		}
		bm.place(m.order.PlanesBeforeChunks())
	}
	if r.err != nil {
		return nil, fmt.Errorf("core: truncated meta: %w", r.err)
	}
	return m, nil
}

// byteReader is a cursor with sticky error for meta decoding.
type byteReader struct {
	data []byte
	pos  int
	err  error
}

func (r *byteReader) u32() uint32 {
	if r.err != nil || r.pos+4 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v
}

func (r *byteReader) u64() uint64 {
	if r.err != nil || r.pos+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data[r.pos:])
	r.pos += 8
	return v
}

func (r *byteReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *byteReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *byteReader) str() string {
	// The length is untrusted: a uvarint above MaxInt64 wraps int()
	// negative, and a huge positive one overflows r.pos+n — compare
	// against the remaining bytes instead, which bounds both.
	n := int(r.uvarint())
	if r.err != nil || n < 0 || n > len(r.data)-r.pos {
		r.fail()
		return ""
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s
}

// uvarintMax reads a uvarint and fails the decode when it exceeds max,
// so narrowing conversions on the caller's side cannot wrap negative.
func (r *byteReader) uvarintMax(max uint64) uint64 {
	v := r.uvarint()
	if r.err == nil && v > max {
		r.err = fmt.Errorf("varint %d exceeds limit %d at %d", v, max, r.pos) //mlocvet:ignore errprefix -- reader errors are wrapped with the core prefix at the exported API
		return 0
	}
	return v
}

func (r *byteReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("unexpected end of buffer at %d", r.pos) //mlocvet:ignore errprefix -- reader errors are wrapped with the core prefix at the exported API
	}
}

// remaining returns the unread byte count (0 after a decode error).
func (r *byteReader) remaining() int {
	if r.err != nil || r.pos > len(r.data) {
		return 0
	}
	return len(r.data) - r.pos
}

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
