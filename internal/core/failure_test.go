package core

// Failure-injection tests: corrupted or missing store files must
// surface as errors, never as wrong answers or panics.

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/query"
)

// corruptStore builds a small store and returns it with its PFS for
// tampering.
func corruptStore(t *testing.T) (*Store, *pfs.Sim) {
	t.Helper()
	d := datagen.GTSLike(32, 32, 3)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{8, 8})
	cfg.NumBins = 6
	cfg.SampleSize = 256
	st, err := Build(fs, fs.NewClock(), "fi/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, fs
}

func anyQuery(t *testing.T, st *Store) error {
	t.Helper()
	vc := binning.ValueConstraint{Min: -1e18, Max: 1e18}
	_, err := st.Query(&query.Request{VC: &vc}, 2)
	return err
}

func TestMissingDataFileErrors(t *testing.T) {
	st, fs := corruptStore(t)
	if err := fs.Delete("fi/phi/bin0002/data"); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded with a deleted bin data file")
	}
}

func TestMissingIndexFileErrors(t *testing.T) {
	st, fs := corruptStore(t)
	if err := fs.Delete("fi/phi/bin0001/index"); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded with a deleted bin index file")
	}
}

func TestTruncatedDataFileErrors(t *testing.T) {
	st, fs := corruptStore(t)
	clk := pfs.NewClock()
	raw, err := fs.ReadFile(clk, "fi/phi/bin0000/data")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(clk, "fi/phi/bin0000/data", raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded on a truncated data file")
	}
}

func TestCorruptedCompressedPlaneErrors(t *testing.T) {
	st, fs := corruptStore(t)
	clk := pfs.NewClock()
	raw, err := fs.ReadFile(clk, "fi/phi/bin0000/data")
	if err != nil {
		t.Fatal(err)
	}
	// Flip bytes near the start, where the compressed plane-0 pieces
	// live in V-M-S layout.
	mangled := append([]byte(nil), raw...)
	for i := 0; i < len(mangled) && i < 64; i++ {
		mangled[i] ^= 0xA5
	}
	if err := fs.WriteFile(clk, "fi/phi/bin0000/data", mangled); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded on corrupted compressed data")
	}
}

func TestCorruptedIndexStreamErrors(t *testing.T) {
	st, fs := corruptStore(t)
	clk := pfs.NewClock()
	raw, err := fs.ReadFile(clk, "fi/phi/bin0000/index")
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite with continuation-bit garbage so uvarints run past the
	// unit's boundary.
	mangled := append([]byte(nil), raw...)
	for i := range mangled {
		mangled[i] = 0xFF
	}
	if err := fs.WriteFile(clk, "fi/phi/bin0000/index", mangled); err != nil {
		t.Fatal(err)
	}
	if err := anyQuery(t, st); err == nil {
		t.Fatal("query succeeded on corrupted index stream")
	}
}

func TestCorruptedMetaErrors(t *testing.T) {
	_, fs := corruptStore(t)
	clk := pfs.NewClock()
	raw, err := fs.ReadFile(clk, "fi/phi/meta")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     raw[:3],
		"bad-magic": append([]byte{0, 0, 0, 0}, raw[4:]...),
		"truncated": raw[:len(raw)-5],
	}
	for name, data := range cases {
		if err := fs.WriteFile(clk, "fi/phi/meta", data); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(fs, pfs.NewClock(), "fi/phi"); err == nil {
			t.Errorf("%s: Open succeeded on corrupted meta", name)
		}
	}
}

func TestErrorsCarryContext(t *testing.T) {
	st, fs := corruptStore(t)
	if err := fs.Delete("fi/phi/bin0000/data"); err != nil {
		t.Fatal(err)
	}
	err := anyQuery(t, st)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "bin0000") {
		t.Errorf("error %q does not name the failing file", err)
	}
}

func TestQueryAfterOtherBinCorruptionStillWorksWhenUntouched(t *testing.T) {
	// Corruption in bin 5 must not affect queries that never select it.
	st, fs := corruptStore(t)
	if err := fs.Delete("fi/phi/bin0005/data"); err != nil {
		t.Fatal(err)
	}
	bounds := st.Scheme().Bounds()
	// A VC entirely inside bin 0.
	vc := binning.ValueConstraint{Min: bounds[0], Max: (bounds[0] + bounds[1]) / 2}
	res, err := st.Query(&query.Request{VC: &vc}, 2)
	if err != nil {
		t.Fatalf("query on healthy bin failed: %v", err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("expected matches in bin 0")
	}
	// And an SC-only probe that avoids bin 5 entirely is impossible to
	// guarantee, so no assertion there — the point is isolation above.
	_ = grid.Shape{}
}

// TestOpenRejectsCorruptStore: the meta stores lengths and Open derives
// every offset from them, so a store whose subfiles disagree with the
// layout, whose units name chunks outside the grid, or whose meta or
// vindex is of another format version or shape must fail at Open —
// naming the bin, the vindex or the version — and never reach a query.
func TestOpenRejectsCorruptStore(t *testing.T) {
	d := datagen.GTSLike(64, 64, 1)
	v, _ := d.Var("phi")
	cfg := DefaultConfig([]int{16, 16})
	cfg.NumBins = 8
	cfg.SampleSize = 1024
	cfg.HierarchicalIndex = true // a tree of 8 leaves, 2 + 1 inner nodes
	const prefix = "oc/phi"
	// build returns a fresh store's PFS and its meta.
	build := func(t *testing.T) (*pfs.Sim, *storeMeta) {
		fs := pfs.New(pfs.DefaultConfig())
		st, err := Build(fs, fs.NewClock(), prefix, d.Shape, v.Data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := st.chunks.NumChunks(); n != 16 {
			t.Fatalf("%d chunks, want 16", n)
		}
		return fs, st.meta
	}
	write := func(t *testing.T, fs *pfs.Sim, path string, data []byte) {
		if err := fs.WriteFile(fs.NewClock(), path, data); err != nil {
			t.Fatal(err)
		}
	}
	read := func(t *testing.T, fs *pfs.Sim, path string) []byte {
		raw, err := fs.ReadFile(fs.NewClock(), path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	const bin = 3
	chunkID := func(id int64) func(*testing.T, *pfs.Sim, *storeMeta) []string {
		return func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			m.bins[bin].units[0].chunkID = id
			write(t, fs, metaPath(prefix), m.marshal())
			return []string{fmt.Sprintf("bin %d ", bin), fmt.Sprintf("chunk %d ", id)}
		}
	}
	resize := func(delta int) func(*testing.T, *pfs.Sim, *storeMeta) []string {
		return func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			path := binDataPath(prefix, bin)
			raw := read(t, fs, path)
			if delta < 0 {
				raw = raw[:len(raw)+delta]
			} else {
				raw = append(raw, make([]byte, delta)...)
			}
			write(t, fs, path, raw)
			return []string{fmt.Sprintf("bin %d ", bin), path}
		}
	}
	cases := []struct {
		name string
		// tamper corrupts the store and returns the fragments Open's
		// error must carry.
		tamper func(*testing.T, *pfs.Sim, *storeMeta) []string
		// absent are fragments the error must not carry.
		absent []string
	}{
		{"chunk id past the grid", chunkID(16 + 3), nil},
		{"negative chunk id", chunkID(-2), nil},
		{"data subfile one byte short", resize(-1), nil},
		{"data subfile one byte long", resize(1), nil},
		{"index subfiles swapped", func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			other := -1
			for b := range m.bins {
				if b != bin && m.bins[b].indexSize != m.bins[bin].indexSize {
					other = b
					break
				}
			}
			if other < 0 {
				t.Fatal("every bin's index subfile has the same size")
			}
			a, b := binIndexPath(prefix, bin), binIndexPath(prefix, other)
			rawA, rawB := read(t, fs, a), read(t, fs, b)
			write(t, fs, a, rawB)
			write(t, fs, b, rawA)
			return []string{fmt.Sprintf("bin %d ", min(bin, other)), "index"}
		}, nil},
		{"version 3", func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			raw := m.marshal()
			binary.LittleEndian.PutUint32(raw[4:], 3)
			write(t, fs, metaPath(prefix), raw)
			return []string{"version 3,", fmt.Sprintf("version %d", metaVersion)}
		}, nil},
		{"vindex of version 1", func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			raw := read(t, fs, vindexPath(prefix))
			binary.LittleEndian.PutUint32(raw[4:], 1)
			write(t, fs, vindexPath(prefix), raw)
			return []string{"vindex", "version 1,", fmt.Sprintf("version %d", vindexVersion)}
		}, nil},
		{"vindex table of every node", func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			// Version 1's table: an entry per leaf ahead of the inner
			// nodes' entries, every extent inside the file.
			raw := read(t, fs, vindexPath(prefix))
			inner := int(binary.LittleEndian.Uint32(raw[20:]))
			table := raw[vindexHeaderSize : vindexHeaderSize+vindexEntrySize*inner]
			shift := uint64(vindexEntrySize * len(m.bins))
			full := binary.LittleEndian.AppendUint32(raw[:20:20], uint32(len(m.bins)+inner))
			full = append(full, raw[24:vindexHeaderSize]...)
			for i := 0; i < len(m.bins)+inner; i++ {
				e := table[vindexEntrySize*max(i-len(m.bins), 0):]
				full = binary.LittleEndian.AppendUint64(full, binary.LittleEndian.Uint64(e)+shift)
				full = append(full, e[8:vindexEntrySize]...)
			}
			write(t, fs, vindexPath(prefix), append(full, raw[len(table)+vindexHeaderSize:]...))
			return []string{"vindex", fmt.Sprintf("%d inner nodes", len(m.bins)+inner)}
		}, nil},
		{"vindex of another bin count", func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			raw := read(t, fs, vindexPath(prefix))
			binary.LittleEndian.PutUint32(raw[12:], uint32(len(m.bins)+1))
			write(t, fs, vindexPath(prefix), raw)
			return []string{fmt.Sprintf("vindex has %d bins, store has %d", len(m.bins)+1, len(m.bins))}
		}, nil},
		{"vindex of another grid", func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			raw := read(t, fs, vindexPath(prefix))
			binary.LittleEndian.PutUint64(raw[24:], 64*64+1)
			write(t, fs, vindexPath(prefix), raw)
			return []string{"vindex covers 4097 positions, grid has 4096"}
		}, nil},
		{"vindex node past the end", func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			raw := read(t, fs, vindexPath(prefix))
			write(t, fs, vindexPath(prefix), raw[:len(raw)-1])
			return []string{"vindex node 2 ", "exceeds file size"}
		}, nil},
		{"parent-format meta", func(t *testing.T, fs *pfs.Sim, m *storeMeta) []string {
			// The format before versioning: the magic, then the dims
			// uvarint 2 and the rest of the header.
			raw := m.marshal()
			if raw[8] != 2 {
				t.Fatalf("dims byte %d, want 2", raw[8])
			}
			write(t, fs, metaPath(prefix), append(raw[:4:4], raw[8:]...))
			return []string{"meta format version"}
		}, []string{"dims"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, m := build(t)
			if _, err := Open(fs, fs.NewClock(), prefix); err != nil {
				t.Fatalf("untouched store: %v", err)
			}
			fragments := tc.tamper(t, fs, m)
			_, err := Open(fs, fs.NewClock(), prefix)
			if err == nil {
				t.Fatal("Open accepted the corrupt store")
			}
			for _, f := range fragments {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("error %q does not mention %q", err, f)
				}
			}
			for _, f := range tc.absent {
				if strings.Contains(err.Error(), f) {
					t.Errorf("error %q mentions %q", err, f)
				}
			}
		})
	}
}

// TestUnitCountBeyondIndexBytesErrors: a floats-mode unit's count is
// stored apart from its piece lengths, and a query sizes its match
// buffer by the units' counts before it reads any index. A meta that
// declares a unit 4 Mi points more than its index bytes hold must fail
// at Open, naming the unit, without a buffer sized by that count; and
// decodeOffsets, the engine's own check, must refuse such a count
// before it grows the offset buffer.
func TestUnitCountBeyondIndexBytesErrors(t *testing.T) {
	d := datagen.GTSLike(32, 32, 3)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := ISOConfig([]int{8, 8})
	cfg.NumBins = 6
	cfg.SampleSize = 256
	st, err := Build(fs, fs.NewClock(), "uc/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const bin, extra = 2, 1 << 22
	u := &st.meta.bins[bin].units[0]
	u.count = int32(u.indexLen) + extra
	if err := fs.WriteFile(fs.NewClock(), metaPath("uc/phi"), st.meta.marshal()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	bad, err := Open(fs, fs.NewClock(), "uc/phi")
	if err == nil {
		err = anyQuery(t, bad)
	}
	runtime.ReadMemStats(&after)
	if want := fmt.Sprintf("bin %d unit 0 ", bin); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %v, want one naming %q", err, want)
	}
	// 4 Mi matches are 64 MiB and 4 Mi offsets 16 MiB; opening and
	// querying a 1 024-point store allocates well under 1 MiB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("open and query allocated %d bytes; the declared count sized a buffer", got)
	}
	out, err := decodeOffsets(nil, []byte{1, 2, 3}, extra)
	if err == nil || cap(out) >= extra {
		t.Fatalf("decodeOffsets(3 bytes, count %d) = cap %d, %v; want an error before the buffer grows", extra, cap(out), err)
	}
}

// TestDecodeOffsetsRejectsOverlongVarint: an offset delta is at most
// five varint bytes. A longer one is malformed, and must not be cut to
// int32 and served as a valid offset.
func TestDecodeOffsetsRejectsOverlongVarint(t *testing.T) {
	raw := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01} // 1 << 42
	if out, err := decodeOffsets(nil, raw, 1); err == nil {
		t.Fatalf("decodeOffsets accepted a 7-byte varint as offsets %v", out)
	}
}

// TestShortInflatedPlaneErrors: a compressed plane must inflate to
// exactly the unit's count times the plane's width. A well-formed zlib
// stream of the piece's stored length that inflates short must fail
// the query, not hand plod.Assemble a short plane.
func TestShortInflatedPlaneErrors(t *testing.T) {
	d := datagen.GTSLike(64, 64, 1)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{32, 32})
	cfg.NumBins = 4
	cfg.SampleSize = 1024
	st, err := Build(fs, fs.NewClock(), "sp/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stored := func(n int) []byte {
		var buf bytes.Buffer
		w, err := zlib.NewWriterLevel(&buf, zlib.NoCompression)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(make([]byte, n))
		w.Close()
		return buf.Bytes()
	}
	overhead := len(stored(0))
	for b := range st.meta.bins {
		for _, u := range st.meta.bins[b].units {
			want := int64(u.count) * int64(plod.PlaneWidth(0))
			if u.pieceLen[0] == want || u.pieceLen[0] < int64(overhead) {
				continue // raw, or too short to hold a stored stream
			}
			n := int(u.pieceLen[0]) - overhead
			short := stored(n)
			n -= len(short) - int(u.pieceLen[0]) // a non-empty stream ends in one more block
			if short = stored(n); int64(len(short)) != u.pieceLen[0] || int64(n) >= want {
				continue
			}
			path := binDataPath("sp/phi", b)
			raw, err := fs.ReadFile(fs.NewClock(), path)
			if err != nil {
				t.Fatal(err)
			}
			copy(raw[u.pieceOff[0]:], short)
			if err := fs.WriteFile(fs.NewClock(), path, raw); err != nil {
				t.Fatal(err)
			}
			// The engine's own check names the plane; without it the
			// short plane reaches plod.Assemble, whose panic the rank
			// runtime turns into a different error.
			msg := fmt.Sprintf("plane 0 has %d bytes, want %d", n, want)
			if err := anyQuery(t, st); err == nil || !strings.Contains(err.Error(), msg) {
				t.Fatalf("query error = %v, want %q", err, msg)
			}
			return
		}
	}
	t.Fatal("no compressed plane-0 piece to shorten")
}

// TestFloatUnitCountMismatchErrors: a floats-mode unit's payload
// carries its own value count, apart from the meta's. A payload that
// decodes to more or fewer values than the unit's count must fail the
// decode, not hand the filter values that do not line up with the
// unit's offsets.
func TestFloatUnitCountMismatchErrors(t *testing.T) {
	d := datagen.GTSLike(32, 32, 3)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := ISOConfig([]int{8, 8})
	cfg.NumBins = 6
	cfg.SampleSize = 256
	st, err := Build(fs, fs.NewClock(), "fc/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := st.meta.bins[0].units[0]
	dataMap, _, err := fs.ReadExtents(fs.NewClock(), binDataPath("fc/phi", 0), []pfs.Extent{{Off: u.pieceOff[0], Len: u.pieceLen[0]}})
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []int32{-1, 1} {
		bad := u
		bad.count += delta
		want := fmt.Sprintf("decoded %d values, want %d", u.count, bad.count)
		if _, err := st.decodeUnitValues(&bad, plod.MaxLevel, dataMap, &rankScratch{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("count %d over a %d-value payload: error = %v, want %q", bad.count, u.count, err, want)
		}
	}
}
