package datagen

import (
	"testing"

	"mloc/internal/compress"
	"mloc/internal/grid"
)

func TestGTSLikeShapeAndDeterminism(t *testing.T) {
	a := GTSLike(32, 64, 7)
	if !a.Shape.Equal(grid.Shape{32, 64}) {
		t.Fatalf("shape = %v", a.Shape)
	}
	v, err := a.Var("phi")
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Data) != 32*64 {
		t.Fatalf("data len = %d", len(v.Data))
	}
	b := GTSLike(32, 64, 7)
	bv, _ := b.Var("phi")
	for i := range v.Data {
		if v.Data[i] != bv.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := GTSLike(32, 64, 8)
	cv, _ := c.Var("phi")
	same := true
	for i := range v.Data {
		if v.Data[i] != cv.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestS3DLikeVariables(t *testing.T) {
	d := S3DLike(16, 1)
	if !d.Shape.Equal(grid.Shape{16, 16, 16}) {
		t.Fatalf("shape = %v", d.Shape)
	}
	for _, name := range []string{"temp", "vu", "vv", "vw"} {
		v, err := d.Var(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Data) != 16*16*16 {
			t.Fatalf("%s len = %d", name, len(v.Data))
		}
	}
	if _, err := d.Var("missing"); err == nil {
		t.Fatal("missing variable accepted")
	}
	// Temperature must look like ambient + hot kernels: min >= ~ambient,
	// max well above it.
	temp, _ := d.Var("temp")
	lo, hi := temp.Data[0], temp.Data[0]
	for _, v := range temp.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo < 290 || hi < 500 {
		t.Fatalf("temperature range [%v,%v] not flame-like", lo, hi)
	}
}

func TestFieldsAreCompressible(t *testing.T) {
	// The whole reproduction depends on the synthetic fields living in
	// the smooth regime ISABELA/ISOBAR target: ISOBAR must achieve a
	// real reduction on them.
	d := GTSLike(64, 64, 3)
	v, _ := d.Var("phi")
	iso := compress.NewIsobar(compress.DefaultZlibLevel)
	enc, err := iso.EncodeFloats(v.Data)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(enc)) > 0.95*float64(len(v.Data)*8) {
		t.Fatalf("GTS-like field incompressible: %d of %d bytes", len(enc), len(v.Data)*8)
	}
}

func TestSelectivity(t *testing.T) {
	d := GTSLike(64, 64, 5)
	v, _ := d.Var("phi")
	for _, frac := range []float64{0.01, 0.1, 0.5} {
		lo, hi := Selectivity(v.Data, frac, 11, 4096)
		if lo > hi {
			t.Fatalf("frac %v: lo %v > hi %v", frac, lo, hi)
		}
		var in int
		for _, x := range v.Data {
			if x >= lo && x <= hi {
				in++
			}
		}
		got := float64(in) / float64(len(v.Data))
		if got < frac/3 || got > frac*3 {
			t.Errorf("frac %v: actual selectivity %v out of tolerance", frac, got)
		}
	}
	// Degenerate fractions clamp instead of failing.
	lo, hi := Selectivity(v.Data, 0, 1, 128)
	if lo > hi {
		t.Fatal("zero-frac selectivity inverted")
	}
	lo, hi = Selectivity(v.Data, 2, 1, 128)
	if lo > hi {
		t.Fatal("over-1 selectivity inverted")
	}
}

func TestSample(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = float64(i)
	}
	s := Sample(data, 10, 3)
	if len(s) != 10 {
		t.Fatalf("sample len = %d", len(s))
	}
	full := Sample(data, 1000, 3)
	if len(full) != 100 {
		t.Fatalf("full sample len = %d", len(full))
	}
	full[0] = -1
	if data[0] == -1 {
		t.Fatal("Sample aliases input")
	}
}
