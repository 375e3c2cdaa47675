package experiments

import (
	"fmt"
	"slices"

	"mloc/internal/core"
	"mloc/internal/query"
)

// Table1 reproduces "Space requirements of data and DBMS index for 8 GB
// raw data": data size, index size, and total for MLOC-COL/ISO/ISA,
// sequential scan, FastBit, and SciDB, on the scaled GTS workload.
func Table1(p Params) (*TableResult, error) {
	p.normalize()
	w := gtsWorkload(false, p.Seed)
	raw := w.rawBytes()

	t := &TableResult{
		Title:  "Table I: storage requirements (scaled GTS, raw = " + fmtMB(raw) + ")",
		Header: []string{"System", "Data size", "Index size", "Total", "Total/raw"},
		Notes: []string{
			fmt.Sprintf("scale factor to paper geometry: %.0fx", w.factor),
			"SciDB replicates data along chunk boundaries (overlap halo), like the paper's asterisk",
		},
	}
	for _, name := range allSystems {
		s, err := fixtureSystem(w, name)
		if err != nil {
			return nil, err
		}
		label, idx, total := name, "N/A", s.data
		if name == sysSciDB {
			label += "*"
		}
		if s.index >= 0 {
			idx = fmtMB(s.index)
			total += s.index
		}
		t.Rows = append(t.Rows, []string{
			label, fmtMB(s.data), idx, fmtMB(total),
			fmt.Sprintf("%.2f", float64(total)/float64(raw)),
		})
	}
	return t, nil
}

// cell is one column of a query-time table: a workload and its queries.
type cell struct {
	w   *workload
	gen func(i int) *query.Request
	lbl string
}

// queryTimeTable times every named system on every cell.
func queryTimeTable(title string, names []string, cells []cell, p Params) (*TableResult, error) {
	t := &TableResult{Title: title, Header: []string{"System"}}
	for _, c := range cells {
		t.Header = append(t.Header, c.lbl)
	}
	for _, name := range names {
		row := []string{name}
		for _, c := range cells {
			s, err := fixtureSystem(c.w, name)
			if err != nil {
				return nil, err
			}
			mean, _, err := s.queryTime(c.gen, p)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s / %s: %w", name, c.lbl, err)
			}
			row = append(row, fmtSec(mean))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"scale-aware simulation: transfer+CPU at paper-scale bytes, constant seek costs (DESIGN.md §6)",
		fmt.Sprintf("mean of %d random queries, %d ranks", p.Queries, p.Ranks))
	return t, nil
}

// regionCells are Tables II and IV's columns: value selectivity 1 % and
// 10 %, no SC, on GTS and S3D.
func regionCells(large bool, seed int64) []cell {
	gts, s3d := gtsWorkload(large, seed), s3dWorkload(large, seed)
	return []cell{
		{gts, vcGen(gts.data(), 0.01, seed+10, true), "1% GTS"},
		{gts, vcGen(gts.data(), 0.10, seed+20, true), "10% GTS"},
		{s3d, vcGen(s3d.data(), 0.01, seed+30, true), "1% S3D"},
		{s3d, vcGen(s3d.data(), 0.10, seed+40, true), "10% S3D"},
	}
}

// valueCells are Tables III and V's columns: region selectivity 0.1 %
// and 1 %, no VC, on GTS and S3D.
func valueCells(large bool, seed int64) []cell {
	gts, s3d := gtsWorkload(large, seed), s3dWorkload(large, seed)
	return []cell{
		{gts, scGen(gts.ds.Shape, 0.001, seed+10), "0.1% GTS"},
		{gts, scGen(gts.ds.Shape, 0.01, seed+20), "1% GTS"},
		{s3d, scGen(s3d.ds.Shape, 0.001, seed+30), "0.1% S3D"},
		{s3d, scGen(s3d.ds.Shape, 0.01, seed+40), "1% S3D"},
	}
}

// Table2 reproduces "Region query response time on 8 GB datasets":
// value selectivity 1 % and 10 %, no SC, on GTS and S3D.
func Table2(p Params) (*TableResult, error) {
	p.normalize()
	return queryTimeTable("Table II: region query response time (8 GB-class, projected sec)",
		allSystems, regionCells(false, p.Seed), p)
}

// Table3 reproduces "Value query response time on 8 GB datasets":
// region selectivity 0.1 % and 1 %, no VC.
func Table3(p Params) (*TableResult, error) {
	p.normalize()
	return queryTimeTable("Table III: value query response time (8 GB-class, projected sec)",
		allSystems, valueCells(false, p.Seed), p)
}

// Table4 reproduces the 512 GB region-query comparison (MLOC vs
// sequential scan only).
func Table4(p Params) (*TableResult, error) {
	p.normalize()
	return queryTimeTable("Table IV: region query response time (512 GB-class, projected sec)",
		mlocAndSeq, regionCells(true, p.Seed), p)
}

// Table5 reproduces the 512 GB value-query comparison.
func Table5(p Params) (*TableResult, error) {
	p.normalize()
	return queryTimeTable("Table V: value query response time (512 GB-class, projected sec)",
		mlocAndSeq, valueCells(true, p.Seed), p)
}

// Table7 reproduces the optimization-order comparison: V-M-S vs V-S-M
// for a 1 % value query with 3-byte PLoD access and with full-precision
// access, on the S3D workload (paper uses 512 GB S3D).
func Table7(p Params) (*TableResult, error) {
	p.normalize()
	w := s3dWorkload(false, p.Seed)

	t := &TableResult{
		Title:  "Table VII: query response time by optimization order (S3D, projected sec)",
		Header: []string{"Order", "3-byte PLoD access", "Full-precision access"},
		Notes: []string{
			"V-M-S stores byte planes contiguously (fast PLoD); V-S-M stores chunks contiguously (fast full reads)",
			fmt.Sprintf("mean of %d random 1%% value queries, %d ranks", p.Queries, p.Ranks),
		},
	}
	for _, ord := range []core.Order{core.OrderVMS, core.OrderVSM} {
		var edit func(*core.Config) // V-M-S, the default order, reads the fixture
		if !slices.Equal(ord, core.OrderVMS) {
			edit = func(c *core.Config) { c.Order = ord }
		}
		st, fs, err := colStore(w, edit)
		if err != nil {
			return nil, err
		}
		gen := scGen(w.ds.Shape, 0.01, p.Seed+50)
		plodGen := func(i int) *query.Request {
			r := gen(i)
			r.PLoDLevel = 2 // 3 bytes
			return r
		}
		plodMean, _, err := avgQueryTime(st, fs, plodGen, p.Queries, p.Ranks)
		if err != nil {
			return nil, err
		}
		fullMean, _, err := avgQueryTime(st, fs, gen, p.Queries, p.Ranks)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			ord.String() + " order",
			fmtSec(plodMean),
			fmtSec(fullMean),
		})
	}
	return t, nil
}

// plodLevelForBytes maps the paper's "num bytes" to a PLoD level.
func plodLevelForBytes(bytes int) int {
	return bytes - 1 // level 1 = 2 bytes ... level 7 = 8 bytes
}
