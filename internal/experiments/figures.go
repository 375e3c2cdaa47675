package experiments

import (
	"fmt"

	"mloc/internal/plod"
	"mloc/internal/query"
)

// Figure6 reproduces the component breakdown (I/O, decompression,
// reconstruction) for value-retrieval access at 0.1 % region
// selectivity on the S3D workload — the paper uses the 512 GB dataset.
func Figure6(p Params) (*TableResult, error) {
	p.normalize()
	w := s3dWorkload(true, p.Seed)
	t := &TableResult{
		Title:  "Figure 6: component times, value retrieval 0.1% on S3D (projected sec)",
		Header: []string{"System", "I/O", "Decompress", "Reconstruct", "Total"},
		Notes: []string{
			fmt.Sprintf("mean of %d random queries, %d ranks; scale-aware simulation at %.0fx", p.Queries, p.Ranks, w.factor),
		},
	}
	gen := scGen(w.ds.Shape, 0.001, p.Seed+60)
	for _, name := range mlocAndSeq {
		s, err := fixtureSystem(w, name)
		if err != nil {
			return nil, err
		}
		_, comps, err := s.queryTime(gen, p)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmtSec(comps.IO),
			fmtSec(comps.Decompress),
			fmtSec(comps.Reconstruct),
			fmtSec(comps.Total()),
		})
	}
	return t, nil
}

// Figure7 reproduces the parallel scalability experiment: value queries
// at 10 % selectivity with 8..128 ranks, reporting component times and
// aggregate throughput. The paper's observation — decompression and
// reconstruction scale with ranks while I/O saturates on contended
// OSTs — emerges from the shared-OST queueing in the PFS model.
func Figure7(p Params) (*TableResult, error) {
	p.normalize()
	w := gtsWorkload(true, p.Seed)
	st, fs, err := mlocStore(w, VariantCOL)
	if err != nil {
		return nil, err
	}
	t := &TableResult{
		Title:  "Figure 7: value query scalability, 10% selectivity on GTS (projected sec)",
		Header: []string{"Ranks", "I/O", "Decompress", "Reconstruct", "Total", "Throughput"},
		Notes: []string{
			"throughput = paper-scale bytes read / projected total time",
			fmt.Sprintf("mean of %d random queries", p.Queries),
		},
	}
	gen := scGen(w.ds.Shape, 0.10, p.Seed+70)
	for _, ranks := range []int{8, 16, 32, 64, 128} {
		var bytes int64
		var comps query.Components
		var total float64
		for i := 0; i < p.Queries; i++ {
			fs.ResetStats()
			res, err := st.Query(gen(i), ranks)
			if err != nil {
				return nil, err
			}
			total += res.Time.Total()
			comps.Add(res.Time)
			bytes += res.BytesRead
		}
		n := float64(p.Queries)
		total /= n
		comps.IO /= n
		comps.Decompress /= n
		comps.Reconstruct /= n
		meanBytes := float64(bytes) / n
		throughput := meanBytes * w.factor / (total) // bytes/sec at paper scale
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", ranks),
			fmtSec(comps.IO),
			fmtSec(comps.Decompress),
			fmtSec(comps.Reconstruct),
			fmtSec(total),
			fmt.Sprintf("%.2f GB/s", throughput/1e9),
		})
	}
	return t, nil
}

// Figure8 reproduces the multi-resolution access performance: value
// queries at 1 % selectivity under PLoD levels 2, 3, 4 and full
// precision on the MLOC-COL store.
func Figure8(p Params) (*TableResult, error) {
	p.normalize()
	w := gtsWorkload(true, p.Seed)
	st, fs, err := mlocStore(w, VariantCOL)
	if err != nil {
		return nil, err
	}
	t := &TableResult{
		Title:  "Figure 8: multi-resolution value query (1% selectivity) under PLoDs (projected sec)",
		Header: []string{"PLoD", "Bytes/val", "I/O", "Decompress", "Reconstruct", "Total"},
		Notes: []string{
			"lower PLoDs fetch fewer byte planes: I/O shrinks, reconstruction stays flat (paper Fig. 8)",
			fmt.Sprintf("mean of %d random queries, %d ranks", p.Queries, p.Ranks),
		},
	}
	gen := scGen(w.ds.Shape, 0.01, p.Seed+80)
	for _, level := range []int{2, 3, 4, 7} {
		lgen := func(i int) *query.Request {
			r := gen(i)
			r.PLoDLevel = level
			return r
		}
		_, comps, err := avgQueryTime(st, fs, lgen, p.Queries, p.Ranks)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("level %d", level)
		if level == plod.MaxLevel {
			label = "full"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", plod.BytesPerValue(level)),
			fmtSec(comps.IO),
			fmtSec(comps.Decompress),
			fmtSec(comps.Reconstruct),
			fmtSec(comps.Total()),
		})
	}
	return t, nil
}
