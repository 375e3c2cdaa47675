package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
)

// FuzzMetaUnmarshal: the store-metadata decoder must reject arbitrary
// bytes with an error, never a panic — it parses catalog files that
// could be corrupted on disk.
func FuzzMetaUnmarshal(f *testing.F) {
	d := datagen.GTSLike(16, 16, 1)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{8, 8})
	cfg.NumBins = 4
	cfg.SampleSize = 64
	st, err := Build(fs, fs.NewClock(), "fz/phi", d.Shape, v.Data, cfg)
	if err != nil {
		f.Fatal(err)
	}
	full := st.meta.marshal()
	f.Add(full)
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x4f, 0x4c, 0x4d}) // magic only
	// Truncated unit tables: cutting the catalog mid-way leaves a
	// unit's lengths running past the buffer, which the decoder must
	// reject without panicking.
	f.Add(full[:len(full)/2])
	f.Add(full[:3*len(full)/4])
	f.Add(full[:len(full)-1])
	// Zero-length bins: constant data lands every point in one bin and
	// leaves the other bins empty, so the catalog carries bins with no
	// units at all.
	flat := make([]float64, 64)
	for i := range flat {
		flat[i] = 1
	}
	cfgFlat := DefaultConfig([]int{4, 4})
	cfgFlat.NumBins = 4
	cfgFlat.SampleSize = 64
	stFlat, err := Build(fs, fs.NewClock(), "fz/flat", grid.Shape{8, 8}, flat, cfgFlat)
	if err != nil {
		f.Fatal(err)
	}
	flatMeta := stFlat.meta.marshal()
	f.Add(flatMeta)
	f.Add(flatMeta[:len(flatMeta)-2]) // zero-length bins, truncated tail
	// The version word cut short, and the header alone.
	f.Add(full[:6])
	f.Add(full[:8])
	// A V-S-M floats meta: one stored piece per unit, laid out
	// unit-major, full and cut inside its unit table.
	cfgFloats := ISOConfig([]int{8, 8})
	cfgFloats.Order = OrderVSM
	cfgFloats.NumBins = 4
	cfgFloats.SampleSize = 64
	stFloats, err := Build(fs, fs.NewClock(), "fz/iso", d.Shape, v.Data, cfgFloats)
	if err != nil {
		f.Fatal(err)
	}
	floatsMeta := stFloats.meta.marshal()
	f.Add(floatsMeta)
	f.Add(floatsMeta[:len(floatsMeta)-3])
	// The committed corpus keeps a meta in the unversioned format
	// before v2: it must be rejected at the version word.
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := unmarshalStoreMeta(data)
		if err == nil && m == nil {
			t.Fatal("nil meta without error")
		}
		if err == nil && binary.LittleEndian.Uint32(data[4:8]) != metaVersion {
			t.Fatalf("accepted a meta of format version %d", binary.LittleEndian.Uint32(data[4:8]))
		}
	})
}

// FuzzDecodeOffsets: the positional-index decoder must be panic-free on
// arbitrary streams, and appending into an arena that already holds
// other units' offsets must leave those untouched and produce the same
// run as decoding into an empty one.
func FuzzDecodeOffsets(f *testing.F) {
	f.Add([]byte{1, 2, 3}, 3)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, 1)
	f.Add([]byte{}, 0)
	f.Add([]byte{}, 5)     // zero-length stream claiming entries
	f.Add([]byte{0x80}, 1) // unterminated varint
	f.Add([]byte{1, 2}, 3) // stream truncated mid-count
	f.Fuzz(func(t *testing.T, raw []byte, count int) {
		if count < 0 || count > 1<<16 {
			return
		}
		out, err := decodeOffsets(nil, raw, count)
		if err == nil && len(out) != count {
			t.Fatalf("decoded %d offsets, want %d", len(out), count)
		}
		// A short-capacity arena forces the grow path mid-bin.
		arena := append(make([]int32, 0, 4), -7, -8, -9)
		arena, aerr := decodeOffsets(arena, raw, count)
		if (aerr == nil) != (err == nil) {
			t.Fatalf("empty arena: %v, non-empty arena: %v", err, aerr)
		}
		if !slices.Equal(arena[:3], []int32{-7, -8, -9}) {
			t.Fatalf("earlier offsets overwritten: %v", arena[:3])
		}
		if err == nil && !slices.Equal(arena[3:], out) {
			t.Fatalf("arena run %v differs from fresh decode %v", arena[3:], out)
		}
	})
}
