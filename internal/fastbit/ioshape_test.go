package fastbit

import (
	"fmt"
	"math"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// ioShape is the deterministic footprint of one query: the answer's
// size, the simulator's counters and the pruning accounting. ioSeconds
// is the slowest rank's virtual I/O time and is recorded for one-rank
// queries only (with more ranks, measured CPU picks the slowest).
type ioShape struct {
	matches                   int
	bytes                     int64
	reads, seeks, opens       int64
	accessed, pruned, covered int
	nodes                     int
	ioSeconds                 float64
}

// wantIOShapes was recorded at commit 8b4a03b; Query must reproduce
// every row. The r1 rows' I/O seconds were re-recorded once, when each
// I/O window began to include the Open before it (the index load's and
// fetchValues'): each rose by exactly its opens × the 0.001 s open
// latency. No other column moved.
var wantIOShapes = map[string]ioShape{
	// name: {matches, bytes, reads, seeks, opens, accessed, pruned, covered, nodes, ioSeconds}
	"flat/index/sel0.01/r1":  {40, 28316, 63, 63, 3, 2, 0, 0, 0, 0.3185663199999998},
	"flat/index/sel0.01/r3":  {40, 28316, 65, 65, 5, 2, 0, 0, 0, 0},
	"flat/index/sel0.1/r1":   {409, 28316, 64, 64, 3, 14, 0, 0, 0, 0.32356631999999974},
	"flat/index/sel0.1/r3":   {409, 28316, 66, 66, 5, 14, 0, 0, 0, 0},
	"flat/index/sel0.5/r1":   {2048, 28316, 65, 65, 3, 65, 0, 0, 0, 0.3285663199999998},
	"flat/index/sel0.5/r3":   {2048, 28316, 67, 67, 5, 65, 0, 0, 0, 0},
	"flat/sc/sel0.01/r1":     {1280, 38044, 1248, 1248, 129, 128, 0, 0, 0, 6.369760879999855},
	"flat/sc/sel0.01/r3":     {1280, 38044, 1250, 1250, 131, 128, 0, 0, 0, 0},
	"flat/values/sel0.01/r1": {40, 28316, 63, 63, 3, 2, 0, 0, 0, 0.3185663199999998},
	"flat/values/sel0.01/r3": {40, 28316, 65, 65, 5, 2, 0, 0, 0, 0},
	"flat/values/sel0.1/r1":  {409, 31388, 428, 428, 15, 14, 0, 0, 0, 2.1556277600000007},
	"flat/values/sel0.1/r3":  {409, 31388, 430, 430, 17, 14, 0, 0, 0, 0},
	"flat/values/sel0.5/r1":  {2048, 44444, 2045, 2045, 66, 65, 0, 0, 0, 10.291888879999698},
	"flat/values/sel0.5/r3":  {2048, 44444, 2047, 2047, 68, 65, 0, 0, 0, 0},
	"flat/vcsc/sel0.01/r1":   {11, 27964, 21, 21, 3, 2, 0, 0, 0, 0.10855928000000004},
	"flat/vcsc/sel0.01/r3":   {11, 27964, 23, 23, 5, 2, 0, 0, 0, 0},
	"flat/vcsc/sel0.1/r1":    {118, 28860, 127, 127, 15, 14, 0, 0, 0, 0.6505771999999997},
	"flat/vcsc/sel0.1/r3":    {118, 28860, 129, 129, 17, 14, 0, 0, 0, 0},
	"flat/vcsc/sel0.5/r1":    {653, 33116, 660, 660, 66, 65, 0, 0, 0, 3.366662319999954},
	"flat/vcsc/sel0.5/r3":    {653, 33116, 662, 662, 68, 65, 0, 0, 0, 0},
}

// buildFlat builds a store with the given bin count over a 64×64
// GTS-like field.
func buildFlat(t *testing.T, bins int) (*Store, []float64) {
	t.Helper()
	d := datagen.GTSLike(64, 64, 7)
	v, _ := d.Var("phi")
	cfg := DefaultConfig()
	cfg.NumBins = bins
	st, err := Build(pfs.New(pfs.DefaultConfig()), pfs.NewClock(), "fbh/flat", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, v.Data
}

func TestQueryIOShapePinned(t *testing.T) {
	st, data := buildFlat(t, 128)
	region := &grid.Region{Lo: []int{8, 16}, Hi: []int{40, 56}}
	got := map[string]ioShape{}
	for _, frac := range []float64{0.01, 0.10, 0.50} {
		lo, hi := datagen.Selectivity(data, frac, 3, 4096)
		vc := &binning.ValueConstraint{Min: lo, Max: hi}
		for _, q := range []struct {
			name string
			req  query.Request
		}{
			{"index", query.Request{VC: vc, IndexOnly: true}},
			{"values", query.Request{VC: vc}},
			{"vcsc", query.Request{VC: vc, SC: region}},
			{"sc", query.Request{SC: region}},
		} {
			if q.name == "sc" && frac != 0.01 {
				continue // no VC: one row per rank count
			}
			for _, ranks := range []int{1, 3} {
				st.fs.ResetStats()
				res, err := st.Query(&q.req, ranks)
				if err != nil {
					t.Fatal(err)
				}
				fsStats := st.fs.Stats()
				s := ioShape{
					matches: len(res.Matches), bytes: res.BytesRead,
					reads: fsStats.Reads, seeks: fsStats.Seeks, opens: fsStats.Opens,
					accessed: res.BinsAccessed, pruned: res.BinsPruned, covered: res.BinsCovered,
					nodes: res.IndexNodesRead,
				}
				if ranks == 1 {
					s.ioSeconds = res.Time.IO
				}
				got[fmt.Sprintf("flat/%s/sel%g/r%d", q.name, frac, ranks)] = s
			}
		}
	}
	for name, g := range got {
		w, ok := wantIOShapes[name]
		// The seconds are sums of the same terms; allow reassociation.
		if ok && math.Abs(g.ioSeconds-w.ioSeconds) <= 1e-9*w.ioSeconds {
			g.ioSeconds = w.ioSeconds
		}
		if !ok || g != w {
			t.Errorf("%q: {%d, %d, %d, %d, %d, %d, %d, %d, %d, %v},", name, g.matches, g.bytes, g.reads, g.seeks, g.opens,
				g.accessed, g.pruned, g.covered, g.nodes, g.ioSeconds)
		}
	}
	if len(got) != len(wantIOShapes) {
		t.Errorf("%d cases ran, %d are pinned", len(got), len(wantIOShapes))
	}
}
