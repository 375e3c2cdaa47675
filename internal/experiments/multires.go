package experiments

import (
	"fmt"
	"math"

	"mloc/internal/analysis"
	"mloc/internal/core"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/query"
)

// ExtensionMultires compares MLOC's two multi-resolution mechanisms —
// precision-based (PLoD, every point at reduced precision) and
// subset-based (hierarchical Hilbert levels, a spatial subsample at
// full precision) — on equal footing: bytes fetched for a full-domain
// read versus the error each induces in a mean-value analysis. The
// paper describes both (§III-B3) but evaluates only PLoD; this table
// makes the trade-off it asserts ("subset-based ... only suitable for
// low-precision requirements") quantitative.
func ExtensionMultires(p Params) (*TableResult, error) {
	p.normalize()
	// A power-of-two cubic grid (the subset store's domain requirement).
	w := s3dWorkload(false, p.Seed)
	data := w.data()
	shape := w.ds.Shape

	exact := analysis.Mean(data)

	t := &TableResult{
		Title:  "Extension: precision-based (PLoD) vs subset-based multiresolution (S3D temp, full-domain mean)",
		Header: []string{"Mechanism", "Setting", "Bytes read", "Fraction", "Mean rel. error"},
		Notes: []string{
			"PLoD returns every point at reduced precision; subsets return a full-precision spatial sample",
			"bytes for PLoD = plane bytes of a whole-domain value query; for subsets = levels 0..ℓ",
		},
	}

	// PLoD side: the fixture's COL store, read over the full domain at levels.
	st, fs, err := mlocStore(w, VariantCOL)
	if err != nil {
		return nil, err
	}
	full, err := readWholeDomain(st, fs, plod.MaxLevel, p.Ranks)
	if err != nil {
		return nil, err
	}
	for _, level := range []int{1, 2, 3} {
		res, err := readWholeDomain(st, fs, level, p.Ranks)
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, m := range res.Matches {
			sum += m.Value
		}
		m := sum / float64(len(res.Matches))
		t.Rows = append(t.Rows, []string{
			"PLoD",
			fmt.Sprintf("level %d (%dB/val)", level, plod.BytesPerValue(level)),
			fmtMB(res.BytesRead),
			fmt.Sprintf("%.3f", float64(res.BytesRead)/float64(full.BytesRead)),
			fmt.Sprintf("%.2e", relErr(m, exact)),
		})
	}

	// Subset side: hierarchical Hilbert store over the same data.
	subFS := newScaledFS(w)
	sub, err := core.BuildSubset(subFS, subFS.NewClock(), "sub", shape, data, nil)
	if err != nil {
		return nil, err
	}
	subFS.ResetStats()
	fullSub, err := sub.ReadLevel(sub.Levels()-1, p.Ranks)
	if err != nil {
		return nil, err
	}
	for _, level := range []int{2, 3, 4} {
		if level >= sub.Levels() {
			continue
		}
		res, err := sub.ReadLevel(level, p.Ranks)
		if err != nil {
			return nil, err
		}
		m := analysis.Mean(res.Values)
		t.Rows = append(t.Rows, []string{
			"Subset",
			fmt.Sprintf("level %d (stride %d)", level, res.Stride),
			fmtMB(res.BytesRead),
			fmt.Sprintf("%.3f", float64(res.BytesRead)/float64(fullSub.BytesRead)),
			fmt.Sprintf("%.2e", relErr(m, exact)),
		})
	}
	return t, nil
}

// readWholeDomain issues an unconstrained value query at a PLoD level.
func readWholeDomain(st *core.Store, fs *pfs.Sim, level, ranks int) (*query.Result, error) {
	fs.ResetStats()
	req := &query.Request{PLoDLevel: level}
	return st.Query(req, ranks)
}

func relErr(got, want float64) float64 {
	if want == 0 { //mlocvet:ignore floatcmp -- exact zero guard before division, not a tolerance comparison
		return math.Abs(got) // exact: relative error is undefined at a zero reference
	}
	return math.Abs(got-want) / math.Abs(want)
}
