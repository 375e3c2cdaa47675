package core

// Failure-injection tests: corrupted or missing store files must
// surface as errors, never as wrong answers or panics.

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
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
