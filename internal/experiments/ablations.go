package experiments

import (
	"errors"
	"fmt"
	"math"

	"mloc/internal/analysis"
	"mloc/internal/binning"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/sfc"
)

// AblationBinning compares equal-frequency against equal-width binning
// on query time and bin-size imbalance (DESIGN.md §5.1). The paper
// argues equal-frequency "prevents load imbalance"; this quantifies it
// on a skewed variable (S3D temperature, dominated by ambient values).
func AblationBinning(p Params) (*TableResult, error) {
	p.normalize()
	w := s3dWorkload(false, p.Seed)
	data := w.data()

	t := &TableResult{
		Title:  "Ablation: equal-frequency vs equal-width binning (S3D temp)",
		Header: []string{"Strategy", "Region query (s)", "Max/mean bin size", "Max bin file"},
		Notes:  []string{"region queries at 1% value selectivity; bin file sizes from the built store"},
	}
	for _, strat := range []binning.Strategy{binning.EqualFrequency, binning.EqualWidth} {
		scheme, err := binning.Build(strat, datagen.Sample(data, 1<<16, p.Seed), 100)
		if err != nil {
			return nil, err
		}
		imbalance := scheme.ImbalanceRatio(data)

		st, fs, err := binnedStore(w, strat)
		if err != nil {
			return nil, err
		}
		gen := vcGen(data, 0.01, p.Seed+90, true)
		mean, _, err := avgQueryTime(st, fs, gen, p.Queries, p.Ranks)
		if err != nil {
			return nil, err
		}
		dataSizes, _ := st.BinFileSizes()
		var maxFile int64
		for _, s := range dataSizes {
			if s > maxFile {
				maxFile = s
			}
		}
		t.Rows = append(t.Rows, []string{
			string(strat),
			fmtSec(mean),
			fmt.Sprintf("%.2f", imbalance),
			fmtMB(maxFile),
		})
	}
	return t, nil
}

// binnedStore returns an MLOC-COL store binned by strat. core always
// bins equal-frequency, so that is the fixture's store; for equal-width
// a private store is built from a synthetic "sample" whose
// equal-frequency quantiles coincide with equal-width boundaries — a
// uniformly spaced ramp over the data range.
func binnedStore(w *workload, strat binning.Strategy) (*core.Store, *pfs.Sim, error) {
	if strat == binning.EqualFrequency {
		return mlocStore(w, VariantCOL)
	}
	data := w.data()
	cfg := core.DefaultConfig(w.chunk)
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	ramp := make([]float64, 10*cfg.NumBins)
	for i := range ramp {
		ramp[i] = lo + (hi-lo)*float64(i)/float64(len(ramp)-1)
	}
	cfg.SampleSize = len(ramp)
	fs := newScaledFS(w)
	st, err := core.BuildWithSample(fs, pfs.NewClock(), "mloc", w.ds.Shape, data, ramp, cfg)
	return st, fs, err
}

// AblationCurve compares Hilbert, Z-order and row-major chunk
// linearizations on value-query time (DESIGN.md §5.2).
func AblationCurve(p Params) (*TableResult, error) {
	p.normalize()
	w := gtsWorkload(false, p.Seed)
	t := &TableResult{
		Title:  "Ablation: chunk linearization curve (GTS, 1% value queries)",
		Header: []string{"Curve", "Query time (s)", "I/O (s)"},
		Notes:  []string{"Hilbert's locality should minimize seeks for spatial sub-regions"},
	}
	for _, curve := range []sfc.CurveKind{sfc.CurveHilbert, sfc.CurveZOrder, sfc.CurveRowMajor} {
		var edit func(*core.Config) // Hilbert, the default curve, reads the fixture
		if curve != sfc.CurveHilbert {
			edit = func(c *core.Config) { c.Curve = curve }
		}
		st, fs, err := colStore(w, edit)
		if err != nil {
			return nil, err
		}
		gen := scGen(w.ds.Shape, 0.01, p.Seed+100)
		mean, comps, err := avgQueryTime(st, fs, gen, p.Queries, p.Ranks)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			string(curve),
			fmtSec(mean),
			fmtSec(comps.IO),
		})
	}
	return t, nil
}

// AblationAssignment compares column-order against round-robin block
// assignment (DESIGN.md §5.3): column order minimizes files per rank.
func AblationAssignment(p Params) (_ *TableResult, err error) {
	p.normalize()
	w := gtsWorkload(false, p.Seed)
	st, fs, err := mlocStore(w, VariantCOL)
	if err != nil {
		return nil, err
	}
	// The store is the fixture's: leave it column-ordered on every path.
	defer func() { err = errors.Join(err, st.SetAssignment(core.AssignColumn)) }()
	t := &TableResult{
		Title:  "Ablation: block-to-rank assignment (GTS, 10% region queries)",
		Header: []string{"Assignment", "Query time (s)", "I/O (s)"},
		Notes:  []string{"column order assigns contiguous runs of one bin's blocks to each rank"},
	}
	for _, a := range []core.Assignment{core.AssignColumn, core.AssignRoundRobin} {
		if err := st.SetAssignment(a); err != nil {
			return nil, err
		}
		gen := vcGen(w.data(), 0.10, p.Seed+110, false)
		mean, comps, err := avgQueryTime(st, fs, gen, p.Queries, p.Ranks)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			string(a),
			fmtSec(mean),
			fmtSec(comps.IO),
		})
	}
	return t, nil
}

// AblationPLoDFill compares the paper's centered 0x7F/0xFF dummy fill
// against naive zero fill on reconstruction accuracy (DESIGN.md §5.4).
func AblationPLoDFill(p Params) (*TableResult, error) {
	p.normalize()
	w := s3dWorkload(false, p.Seed)
	v, err := w.ds.Var("vu")
	if err != nil {
		return nil, err
	}
	data := v.Data
	t := &TableResult{
		Title:  "Ablation: PLoD dummy-fill policy (S3D vu, mean |relative error|)",
		Header: []string{"Bytes", "Centered 0x7F/0xFF", "Zero fill"},
	}
	for _, nbytes := range []int{2, 3, 4} {
		level := plodLevelForBytes(nbytes)
		centered := degrade(data, level, plod.FillCentered)
		zero := degrade(data, level, plod.FillZero)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nbytes),
			fmtPct(meanRelError(data, centered)),
			fmtPct(meanRelError(data, zero)),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("mean of original data: %.4g", analysis.Mean(data)))
	return t, nil
}

func meanRelError(orig, approx []float64) float64 {
	var sum float64
	var n int
	for i := range orig {
		if orig[i] == 0 { //mlocvet:ignore floatcmp -- exact zero guard before division, not a tolerance comparison
			continue // exact: relative error is undefined at a zero reference
		}
		sum += math.Abs(approx[i]-orig[i]) / math.Abs(orig[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AblationFileOrg compares the per-bin subfiling layout against a
// single-shared-file layout on open counts and query time (DESIGN.md
// §5.5). The shared-file variant is emulated by a store with one bin
// (all data in one data file), sacrificing value-binning selectivity.
func AblationFileOrg(p Params) (*TableResult, error) {
	p.normalize()
	w := gtsWorkload(false, p.Seed)
	t := &TableResult{
		Title:  "Ablation: subfiling (100 bin files) vs single shared file (1 bin)",
		Header: []string{"Layout", "Region query (s)", "Opens/query", "Files"},
		Notes:  []string{"one bin disables value selectivity: every region query scans the whole store"},
	}
	for _, bins := range []int{100, 1} {
		var edit func(*core.Config) // 100 bins, the default, reads the fixture
		if bins != 100 {
			edit = func(c *core.Config) { c.NumBins = bins }
		}
		st, fs, err := colStore(w, edit)
		if err != nil {
			return nil, err
		}
		gen := vcGen(w.data(), 0.01, p.Seed+120, true)
		var opens int64
		var total float64
		for i := 0; i < p.Queries; i++ {
			fs.ResetStats()
			res, err := st.Query(gen(i), p.Ranks)
			if err != nil {
				return nil, err
			}
			total += res.Time.Total()
			opens += fs.Stats().Opens
		}
		label := fmt.Sprintf("%d bins (subfiled)", bins)
		if bins == 1 {
			label = "1 bin (shared file)"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmtSec(total / float64(p.Queries)),
			fmt.Sprintf("%.1f", float64(opens)/float64(p.Queries)),
			fmt.Sprintf("%d", len(fs.List("mloc/"))),
		})
	}
	return t, nil
}
