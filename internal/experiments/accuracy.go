package experiments

import (
	"errors"
	"fmt"
	"sync"

	"mloc/internal/analysis"
	"mloc/internal/plod"
)

// Table6 reproduces the PLoD accuracy measurement: equal-width
// histogram disagreement for the S3D variables vu/vv/vw at 2-, 3- and
// 4-byte PLoDs, and K-means misclassification on the joint (vv, vw)
// points. Histogram edges and K-means initial centroids come from the
// original data, exactly as the paper's protocol prescribes.
func Table6(p Params) (*TableResult, error) {
	p.normalize()
	w := s3dWorkload(false, p.Seed)

	vars := []string{"vu", "vv", "vw"}
	orig := make(map[string][]float64, len(vars))
	for _, name := range vars {
		v, err := w.ds.Var(name)
		if err != nil {
			return nil, err
		}
		orig[name] = v.Data
	}

	const histBins = 100
	const kClusters = 8
	const kIters = 100

	hists := make(map[string]*analysis.EqualWidthHistogram, len(vars))
	for _, name := range vars {
		h, err := analysis.NewEqualWidthHistogram(orig[name], histBins)
		if err != nil {
			return nil, err
		}
		hists[name] = h
	}

	t := &TableResult{
		Title:  "Table VI: error rates of data analysis on different PLoDs (S3D)",
		Header: []string{"Num Bytes", "Hist vu", "Hist vv", "Hist vw", "K-means vv+vw"},
		Notes: []string{
			fmt.Sprintf("histogram: %d equal-width bins built on original data; error = fraction of points changing bin", histBins),
			fmt.Sprintf("K-means: k=%d, %d iterations, shared initial centroids; error = fraction of points changing cluster", kClusters, kIters),
		},
	}

	numBytes := []int{2, 3, 4}
	degraded := make([]map[string][]float64, len(numBytes))
	for i, nbytes := range numBytes {
		degraded[i] = make(map[string][]float64, len(vars))
		for _, name := range vars {
			degraded[i][name] = degrade(orig[name], plodLevelForBytes(nbytes), plod.FillCentered)
		}
	}

	// K-means on the original (vv, vw) and on each degraded copy. The
	// four clusterings are independent, so they run concurrently. All
	// use the same seed, so the original and degraded runs initialize
	// from the same point indices — the degraded copies of those points
	// differ only by the PLoD rounding, which keeps cluster identities
	// in correspondence across runs.
	clusters := make([]*analysis.KMeansResult, 1+len(numBytes))
	errs := make([]error, len(clusters))
	var wg sync.WaitGroup
	for i := range clusters {
		cols := orig
		if i > 0 {
			cols = degraded[i-1]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pts, err := analysis.Columns(cols["vv"], cols["vw"])
			if err == nil {
				clusters[i], err = analysis.KMeans(pts, kClusters, kIters, p.Seed, nil)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	for i, nbytes := range numBytes {
		row := []string{fmt.Sprintf("%d", nbytes)}
		for _, name := range vars {
			rate, err := hists[name].DisagreementRate(orig[name], degraded[i][name])
			if err != nil {
				return nil, err
			}
			row = append(row, fmtPct(rate))
		}
		rate, err := analysis.MisclassificationRate(clusters[0], clusters[i+1])
		if err != nil {
			return nil, err
		}
		row = append(row, fmtPct(rate))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// degrade round-trips values through a PLoD level with the given fill.
func degrade(values []float64, level int, fill plod.FillPolicy) []float64 {
	planes := plod.Split(values)
	ps := make([][]byte, plod.NumPlanes)
	for i := range planes {
		ps[i] = planes[i]
	}
	return plod.Assemble(ps, level, len(values), fill, make([]float64, 0, len(values)))
}

// fmtPct renders a fraction as a percentage with adaptive precision,
// matching the paper's mixed "8.241%" / "6.5E-3%" style.
func fmtPct(f float64) string {
	pct := f * 100
	switch {
	case pct == 0: //mlocvet:ignore floatcmp -- exact zero selects the minimum, not a tolerance comparison
		return "0%" // exact: only a true zero prints as "0%"
	case pct < 0.001:
		return fmt.Sprintf("%.1E%%", pct)
	default:
		return fmt.Sprintf("%.3f%%", pct)
	}
}
