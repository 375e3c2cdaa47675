package experiments

import (
	"testing"

	"mloc/internal/binning"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/fastbit"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
	"mloc/internal/scidb"
	"mloc/internal/seqscan"
)

// TestOpenIsIO: every engine counts its file opens as I/O. With a
// one-second open, each query's slowest rank reports at least a second
// of I/O; an open charged outside the I/O window would leave its second
// out of every component, so Result.Time would fall short of the
// rank's clock.
func TestOpenIsIO(t *testing.T) {
	d := datagen.GTSLike(64, 64, 3)
	v, _ := d.Var("phi")
	cfg := pfs.DefaultConfig()
	cfg.OpenLatency = 1
	fs := pfs.New(cfg)
	chunk := []int{16, 16}
	mcfg := core.DefaultConfig(chunk)
	mcfg.NumBins = 16
	mcfg.SampleSize = 1 << 12
	mloc, err := core.Build(fs, fs.NewClock(), "mloc", d.Shape, v.Data, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := seqscan.Build(fs, fs.NewClock(), "seq", d.Shape, v.Data)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := fastbit.Build(fs, fs.NewClock(), "fb", d.Shape, v.Data, fastbit.Config{NumBins: 16, SampleSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	sci, err := scidb.Build(fs, fs.NewClock(), "sci", d.Shape, v.Data, scidb.DefaultConfig(chunk))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := datagen.Selectivity(v.Data, 0.05, 3, 1024)
	vc := &query.Request{VC: &binning.ValueConstraint{Min: lo, Max: hi}}
	sub := grid.Region{Lo: []int{8, 8}, Hi: []int{40, 24}}
	sc := &query.Request{SC: &sub}
	for _, c := range []struct {
		name  string
		query func(*query.Request, int) (*query.Result, error)
		req   *query.Request
	}{
		{"mloc", mloc.Query, sc},
		{"seqscan/region", seq.Query, sc},
		{"seqscan/scan", seq.Query, vc},
		{"fastbit", fb.Query, vc},
		{"scidb", sci.Query, sc},
	} {
		res, err := c.query(c.req, 2)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Time.IO < cfg.OpenLatency {
			t.Errorf("%s: Time.IO = %.6f s, below the %g s open of the slowest rank", c.name, res.Time.IO, cfg.OpenLatency)
		}
	}
}
