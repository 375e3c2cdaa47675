package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/compress"
	"mloc/internal/datagen"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// TestInflateBoundedByMetadata plants a deflate stream that inflates to
// 64 MiB where the metadata says a piece holds count × width bytes. The
// readers know that size before they inflate anything, so each must stop
// one byte past it — naming the piece — instead of allocating whatever
// the stream asks for and checking the length afterwards.
func TestInflateBoundedByMetadata(t *testing.T) {
	zl := compress.NewZlib(compress.DefaultZlibLevel)
	bomb, err := zl.EncodeBytes(make([]byte, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	d := datagen.GTSLike(32, 32, 3)
	v, _ := d.Var("phi")
	all := binning.ValueConstraint{Min: -1e30, Max: 1e30}

	// plantUnit builds a planes store and points plane 0 of one unit at
	// the bomb, returning the store, the bin and unit, and the byte count
	// the metadata promises.
	plantUnit := func(t *testing.T) (*Store, int, int, int) {
		fs := pfs.New(pfs.DefaultConfig())
		cfg := DefaultConfig([]int{8, 8})
		cfg.NumBins = 6
		cfg.SampleSize = 256
		st, err := Build(fs, fs.NewClock(), "bomb/phi", d.Shape, v.Data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for b := range st.meta.bins {
			for ui := range st.meta.bins[b].units {
				u := &st.meta.bins[b].units[ui]
				if u.pieceLen[0] == 2*int64(u.count) {
					continue // stored raw: nothing to inflate
				}
				path := binDataPath(st.prefix, b)
				size, err := fs.Size(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := fs.AppendFile(fs.NewClock(), path, bomb); err != nil {
					t.Fatal(err)
				}
				u.pieceOff[0], u.pieceLen[0] = size, int64(len(bomb))
				return st, b, ui, 2 * int(u.count)
			}
		}
		t.Fatal("no unit with a compressed plane 0")
		return nil, 0, 0, 0
	}

	cases := []struct {
		name string
		// run plants the bomb and returns the access that must fail and
		// the fragments its error must carry.
		run func(t *testing.T) (access func() error, fragments []string)
	}{
		{"value query", func(t *testing.T) (func() error, []string) {
			st, b, ui, want := plantUnit(t)
			return func() error {
					_, err := st.Query(&query.Request{VC: &all}, 2)
					return err
				}, []string{
					fmt.Sprintf("bin %d unit %d", b, ui),
					fmt.Sprintf("exceeds %d-byte limit", want),
				}
		}},
		{"position fetch", func(t *testing.T) (func() error, []string) {
			st, _, _, want := plantUnit(t)
			positions := bitmap.New(d.Shape.Elems())
			for i := int64(0); i < d.Shape.Elems(); i++ {
				positions.Set(i)
			}
			return func() error {
				_, err := st.FetchAtContext(context.Background(), positions, 2)
				return err
			}, []string{fmt.Sprintf("exceeds %d-byte limit", want)}
		}},
		{"subset level", func(t *testing.T) (func() error, []string) {
			fs := pfs.New(pfs.DefaultConfig())
			sub, err := BuildSubset(fs, fs.NewClock(), "bomb/sub", d.Shape, v.Data, zl)
			if err != nil {
				t.Fatal(err)
			}
			lvl := sub.Levels() - 1
			blk := &sub.levels[lvl].blocks[0]
			path := subsetLevelPath(sub.prefix, lvl)
			size, err := fs.Size(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.AppendFile(fs.NewClock(), path, bomb); err != nil {
				t.Fatal(err)
			}
			blk.off, blk.length = size, int64(len(bomb))
			return func() error {
					_, err := sub.ReadLevel(lvl, 2)
					return err
				}, []string{
					fmt.Sprintf("subset block %d/0", lvl),
					fmt.Sprintf("exceeds %d-byte limit", 8*blk.count),
				}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			access, fragments := tc.run(t)
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := access()
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("a piece inflating to 64 MiB was accepted")
			}
			for _, f := range fragments {
				if !strings.Contains(err.Error(), f) {
					t.Errorf("error %q does not mention %q", err, f)
				}
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("failed after allocating %d bytes, want < 1 MiB", got)
			}
		})
	}
}
