package core

import (
	"context"
	"testing"

	"mloc/internal/bitmap"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// buildMultiVarStores builds MLOC stores for all S3D-like variables on
// one shared PFS.
func buildMultiVarStores(t *testing.T) (map[string]*Store, *datagen.Dataset) {
	t.Helper()
	d := datagen.S3DLike(12, 7)
	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{6, 6, 6})
	cfg.NumBins = 8
	cfg.SampleSize = 512
	stores := make(map[string]*Store, len(d.Vars))
	for _, v := range d.Vars {
		st, err := Build(fs, pfs.NewClock(), "mv/"+v.Name, d.Shape, v.Data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stores[v.Name] = st
	}
	return stores, d
}

func TestMultiVarQueryMatchesBruteForce(t *testing.T) {
	stores, d := buildMultiVarStores(t)
	temp, _ := d.Var("temp")
	vu, _ := d.Var("vu")

	// "vu where temp in hot range" — the paper's humidity/temperature
	// example shape.
	lo, hi := datagen.Selectivity(temp.Data, 0.15, 3, 2048)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	req := MultiVarRequest{
		Select:    query.Request{VC: &vc},
		FetchVars: []string{"vu"},
	}
	res, err := MultiVarQuery(stores, "temp", req, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Brute force: positions where temp satisfies vc; fetch vu there.
	var want []query.Match
	for i, tv := range temp.Data {
		if vc.Contains(tv) {
			want = append(want, query.Match{Index: int64(i), Value: vu.Data[i]})
		}
	}
	got := res.Values["vu"]
	if len(got) != len(want) {
		t.Fatalf("fetched %d vu values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vu match %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if res.Positions.Count() != int64(len(want)) {
		t.Fatalf("position bitmap has %d bits, want %d", res.Positions.Count(), len(want))
	}
}

func TestMultiVarWithSpatialConstraint(t *testing.T) {
	stores, d := buildMultiVarStores(t)
	temp, _ := d.Var("temp")
	vv, _ := d.Var("vv")
	lo, hi := datagen.Selectivity(temp.Data, 0.3, 5, 2048)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	sc, _ := grid.NewRegion([]int{0, 0, 0}, []int{6, 12, 12})
	req := MultiVarRequest{
		Select:    query.Request{VC: &vc, SC: &sc},
		FetchVars: []string{"vv", "vw"},
	}
	res, err := MultiVarQuery(stores, "temp", req, 2)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([]int, 3)
	var want []query.Match
	for i, tv := range temp.Data {
		coords = d.Shape.Coords(int64(i), coords[:0])
		if vc.Contains(tv) && sc.Contains(coords) {
			want = append(want, query.Match{Index: int64(i), Value: vv.Data[i]})
		}
	}
	got := res.Values["vv"]
	if len(got) != len(want) {
		t.Fatalf("fetched %d vv values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("vv match %d mismatch", i)
		}
	}
	if len(res.Values["vw"]) != len(want) {
		t.Fatal("vw fetch count differs")
	}
}

func TestMultiVarValidation(t *testing.T) {
	stores, _ := buildMultiVarStores(t)
	if _, err := MultiVarQuery(stores, "nope", MultiVarRequest{}, 1); err == nil {
		t.Error("unknown select variable accepted")
	}
	req := MultiVarRequest{FetchVars: []string{"nope"}}
	if _, err := MultiVarQuery(stores, "temp", req, 1); err == nil {
		t.Error("unknown fetch variable accepted")
	}
}

func TestFetchAtValidation(t *testing.T) {
	stores, _ := buildMultiVarStores(t)
	st := stores["temp"]
	short := newBitmapOfLen(10)
	if _, err := st.FetchAtContext(context.Background(), short, 1); err == nil {
		t.Error("wrong-length bitmap accepted")
	}
	ok := newBitmapOfLen(st.Shape().Elems())
	if _, err := st.FetchAtContext(context.Background(), ok, 0); err == nil {
		t.Error("ranks=0 accepted")
	}
	res, err := st.FetchAtContext(context.Background(), ok, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Error("empty bitmap fetched matches")
	}
}

func TestFetchAtReadsOnlyHitChunks(t *testing.T) {
	stores, d := buildMultiVarStores(t)
	st := stores["vu"]
	bm := newBitmapOfLen(st.Shape().Elems())
	// One position -> one chunk's units at most (per bin).
	bm.Set(0)
	res, err := st.FetchAtContext(context.Background(), bm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 1 || res.Matches[0].Index != 0 {
		t.Fatalf("matches = %+v", res.Matches)
	}
	vu, _ := d.Var("vu")
	if res.Matches[0].Value != vu.Data[0] {
		t.Fatal("wrong fetched value")
	}
	// The single hit chunk has at most NumBins units; only the unit
	// containing position 0 needs its data read.
	if res.BlocksRead < 1 || res.BlocksRead > st.NumBins() {
		t.Fatalf("BlocksRead = %d out of expected range", res.BlocksRead)
	}
}

func newBitmapOfLen(n int64) *bitmap.Bitmap { return bitmap.New(n) }
