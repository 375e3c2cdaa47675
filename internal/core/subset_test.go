package core

import (
	"testing"

	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
)

func buildSubsetStore(t *testing.T, side int) (*SubsetStore, []float64, grid.Shape) {
	t.Helper()
	d := datagen.GTSLike(side, side, 13)
	v, _ := d.Var("phi")
	fs := pfs.New(pfs.DefaultConfig())
	st, err := BuildSubset(fs, fs.NewClock(), "sub/phi", d.Shape, v.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st, v.Data, d.Shape
}

func TestBuildSubsetValidation(t *testing.T) {
	fs := pfs.New(pfs.DefaultConfig())
	clk := fs.NewClock()
	if _, err := BuildSubset(fs, clk, "x", grid.Shape{16, 8}, make([]float64, 128), nil); err == nil {
		t.Error("non-cubic grid accepted")
	}
	if _, err := BuildSubset(fs, clk, "x", grid.Shape{12, 12}, make([]float64, 144), nil); err == nil {
		t.Error("non-power-of-two side accepted")
	}
	if _, err := BuildSubset(fs, clk, "x", grid.Shape{16, 16}, make([]float64, 3), nil); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSubsetFullResolutionRoundtrip(t *testing.T) {
	st, data, shape := buildSubsetStore(t, 32)
	res, err := st.ReadLevel(st.Levels()-1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stride != 1 || !res.Shape.Equal(shape) {
		t.Fatalf("full-res read: stride %d shape %v", res.Stride, res.Shape)
	}
	for i := range data {
		if res.Values[i] != data[i] {
			t.Fatalf("value %d: %v != %v", i, res.Values[i], data[i])
		}
	}
}

func TestSubsetLevelsAreStrideSamples(t *testing.T) {
	st, data, shape := buildSubsetStore(t, 32)
	for lvl := 0; lvl < st.Levels(); lvl++ {
		res, err := st.ReadLevel(lvl, 3)
		if err != nil {
			t.Fatalf("level %d: %v", lvl, err)
		}
		stride := res.Stride
		wantShape := grid.Shape{(32 + stride - 1) / stride, (32 + stride - 1) / stride}
		if !res.Shape.Equal(wantShape) {
			t.Fatalf("level %d: shape %v, want %v", lvl, res.Shape, wantShape)
		}
		// Every returned point must equal the original at the strided
		// coordinates.
		res.Shape.Clone() // no-op, keeps intent clear
		for y := 0; y < res.Shape[0]; y++ {
			for x := 0; x < res.Shape[1]; x++ {
				got := res.Values[res.Shape.Linear([]int{y, x})]
				want := data[shape.Linear([]int{y * stride, x * stride})]
				if got != want {
					t.Fatalf("level %d point (%d,%d): %v != %v", lvl, y, x, got, want)
				}
			}
		}
	}
}

func TestSubsetBytesGrowWithLevel(t *testing.T) {
	st, _, _ := buildSubsetStore(t, 64)
	var prev int64 = -1
	for lvl := 0; lvl < st.Levels(); lvl++ {
		res, err := st.ReadLevel(lvl, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.BytesRead <= prev {
			t.Fatalf("level %d read %d bytes, not more than level %d's %d",
				lvl, res.BytesRead, lvl-1, prev)
		}
		prev = res.BytesRead
	}
	// Coarse levels must be far cheaper than full resolution.
	coarse, _ := st.ReadLevel(2, 2)
	full, _ := st.ReadLevel(st.Levels()-1, 2)
	if coarse.BytesRead*10 > full.BytesRead {
		t.Fatalf("level-2 read %d bytes, full %d — subset reads not cheap enough",
			coarse.BytesRead, full.BytesRead)
	}
}

func TestSubsetReadLevelValidation(t *testing.T) {
	st, _, _ := buildSubsetStore(t, 16)
	if _, err := st.ReadLevel(-1, 1); err == nil {
		t.Error("negative level accepted")
	}
	if _, err := st.ReadLevel(st.Levels(), 1); err == nil {
		t.Error("over-max level accepted")
	}
	if _, err := st.ReadLevel(0, 0); err == nil {
		t.Error("ranks=0 accepted")
	}
}

func TestSubset3D(t *testing.T) {
	d := datagen.S3DLike(16, 5)
	v, _ := d.Var("temp")
	fs := pfs.New(pfs.DefaultConfig())
	st, err := BuildSubset(fs, fs.NewClock(), "sub3/temp", d.Shape, v.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.ReadLevel(st.Levels()-1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if res.Values[i] != v.Data[i] {
			t.Fatalf("3-D full-res mismatch at %d", i)
		}
	}
	// Level 1 = stride 8 on a 16³ grid: a 2³ sample.
	res, err = st.ReadLevel(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shape.Equal(grid.Shape{2, 2, 2}) {
		t.Fatalf("level-1 shape %v", res.Shape)
	}
	if res.Values[0] != v.Data[0] {
		t.Fatal("origin sample mismatch")
	}
}
