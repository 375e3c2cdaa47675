package core

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

func hierTestConfig() Config {
	cfg := testConfig()
	cfg.HierarchicalIndex = true
	return cfg
}

func TestHierarchicalBuildAndOpen(t *testing.T) {
	data, shape := testData(t)
	fs := pfs.New(pfs.DefaultConfig())
	st, err := Build(fs, pfs.NewClock(), "mloc/phi", shape, data, hierTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.vidx == nil {
		t.Fatal("built store has no vindex")
	}
	// The vindex is part of the index footprint.
	flat, err := Build(fs, pfs.NewClock(), "mloc/flat", shape, data, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexBytes() <= flat.IndexBytes() {
		t.Errorf("hierarchical index bytes %d not larger than flat %d", st.IndexBytes(), flat.IndexBytes())
	}

	// Open reconstructs the vindex from the subfile.
	opened, err := Open(fs, pfs.NewClock(), "mloc/phi")
	if err != nil {
		t.Fatal(err)
	}
	if opened.vidx == nil {
		t.Fatal("opened store lost the vindex")
	}
	if opened.vidx.size != st.vidx.size || len(opened.vidx.offs) != len(st.vidx.offs) {
		t.Fatalf("opened vindex shape differs: %d bytes/%d nodes vs %d/%d",
			opened.vidx.size, len(opened.vidx.offs), st.vidx.size, len(st.vidx.offs))
	}
	openedFlat, err := Open(fs, pfs.NewClock(), "mloc/flat")
	if err != nil {
		t.Fatal(err)
	}
	if openedFlat.vidx != nil {
		t.Fatal("flat store grew a vindex on open")
	}
}

// The satellite property test: hierarchical and flat scans must return
// identical query.Result match sets across VC/SC/PLoD/index-only modes.
// Run under -race via the race Make target (internal/core is in
// RACE_PKGS).
func TestHierarchicalFlatEquivalenceProperty(t *testing.T) {
	d := datagen.GTSLike(48, 48, 3)
	v, _ := d.Var("phi")
	data, shape := v.Data, d.Shape

	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{8, 8})
	cfg.NumBins = 24
	cfg.SampleSize = 1024

	flatSt, err := Build(fs, pfs.NewClock(), "eq/flat", shape, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := cfg
	hcfg.HierarchicalIndex = true
	hierSt, err := Build(fs, pfs.NewClock(), "eq/hier", shape, data, hcfg)
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(99))
	lo, hi := dataRange(data)
	for trial := 0; trial < 60; trial++ {
		req := &query.Request{}
		if r.Intn(4) > 0 { // VC present in 3/4 of trials
			a := lo + r.Float64()*(hi-lo)
			b := lo + r.Float64()*(hi-lo)
			if a > b {
				a, b = b, a
			}
			req.VC = &binning.ValueConstraint{Min: a, Max: b}
		}
		if r.Intn(2) == 0 {
			x0, y0 := r.Intn(48), r.Intn(48)
			x1, y1 := x0+1+r.Intn(48-x0), y0+1+r.Intn(48-y0)
			req.SC = &grid.Region{Lo: []int{x0, y0}, Hi: []int{x1, y1}}
		}
		req.IndexOnly = r.Intn(2) == 0
		if !req.IndexOnly && r.Intn(2) == 0 {
			req.PLoDLevel = 7 // full precision via explicit level
		}
		ranks := 1 + r.Intn(4)

		want, err := flatSt.Query(req, ranks)
		if err != nil {
			t.Fatal(err)
		}
		got, err := hierSt.Query(req, ranks)
		if err != nil {
			t.Fatal(err)
		}
		matchesEqual(t, got.Matches, want.Matches, "trial")
		if req.VC != nil && req.IndexOnly {
			sel := hierSt.vidx.tree.Select(*req.VC)
			if got.BinsPruned != sel.PrunedLeaves || got.BinsCovered != sel.CoveredLeaves {
				t.Fatalf("trial %d: result pruning (%d,%d) != planner (%d,%d)",
					trial, got.BinsPruned, got.BinsCovered, sel.PrunedLeaves, sel.CoveredLeaves)
			}
		} else if got.BinsPruned != 0 || got.BinsCovered != 0 || got.IndexNodesRead != 0 {
			t.Fatalf("trial %d: flat-path query reported pruning %+v", trial, got)
		}
	}
}

// An index-only range query over a hierarchical store must beat the
// flat scan on virtual latency at low selectivity and report its
// pruning factors through Plan.Observe.
func TestHierarchicalSpeedupAndExplain(t *testing.T) {
	d := datagen.GTSLike(96, 96, 5)
	v, _ := d.Var("phi")
	data, shape := v.Data, d.Shape

	fs := pfs.New(pfs.DefaultConfig())
	cfg := DefaultConfig([]int{8, 8})
	cfg.NumBins = 256
	cfg.SampleSize = 4096
	flatSt, err := Build(fs, pfs.NewClock(), "sp/flat", shape, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hcfg := cfg
	hcfg.HierarchicalIndex = true
	hierSt, err := Build(fs, pfs.NewClock(), "sp/hier", shape, data, hcfg)
	if err != nil {
		t.Fatal(err)
	}

	lo, hi := datagen.Selectivity(data, 0.10, 3, 4096)
	req := &query.Request{VC: &binning.ValueConstraint{Min: lo, Max: hi}, IndexOnly: true}

	flatRes, err := flatSt.Query(req, 4)
	if err != nil {
		t.Fatal(err)
	}
	hierRes, err := hierSt.Query(req, 4)
	if err != nil {
		t.Fatal(err)
	}
	matchesEqual(t, hierRes.Matches, flatRes.Matches, "speedup query")
	if hierRes.BinsPruned+hierRes.BinsCovered == 0 {
		t.Fatal("hierarchical query did no pruning")
	}
	if ft, ht := flatRes.Time.Total(), hierRes.Time.Total(); ht >= ft {
		t.Errorf("hierarchical latency %.6fs not below flat %.6fs", ht, ft)
	}

	plan, err := hierSt.Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Hierarchical {
		t.Fatal("plan not hierarchical")
	}
	if plan.BinsPruned != hierRes.BinsPruned || plan.BinsCovered != hierRes.BinsCovered {
		t.Fatalf("plan pruning (%d,%d) != result (%d,%d)",
			plan.BinsPruned, plan.BinsCovered, hierRes.BinsPruned, hierRes.BinsCovered)
	}
	plan.Observe(hierRes)
	out := plan.String()
	if !strings.Contains(out, "pruning:") || !strings.Contains(out, "index tree:") {
		t.Fatalf("explain output missing pruning lines:\n%s", out)
	}
}

// Cancellation must be honored on the vindex path too.
func TestHierarchicalAccountingInvariants(t *testing.T) {
	data, shape := testData(t)
	fs := pfs.New(pfs.DefaultConfig())
	st, err := Build(fs, pfs.NewClock(), "inv/hier", shape, data, hierTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Wide enough to hold an inner node: the vindex stores no leaf.
	lo, hi := datagen.Selectivity(data, 0.7, 11, 1024)
	req := &query.Request{VC: &binning.ValueConstraint{Min: lo, Max: hi}, IndexOnly: true}
	res, err := st.Query(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The tree partition must cover the whole leaf space.
	boundary := res.BinsAccessed - res.BinsCovered
	if res.BinsPruned+res.BinsCovered+boundary > st.NumBins() {
		t.Fatalf("pruned %d + covered %d + boundary %d exceeds %d bins",
			res.BinsPruned, res.BinsCovered, boundary, st.NumBins())
	}
	if res.BinsCovered > 0 && res.IndexNodesRead == 0 {
		t.Fatal("covered bins with no node reads")
	}
	if res.IndexNodesRead > res.BinsCovered {
		t.Fatalf("read %d nodes to cover %d bins", res.IndexNodesRead, res.BinsCovered)
	}
	matchesEqual(t, res.Matches, bruteForce(data, shape, req), "accounting query")
}

// A vindex node whose bitmap claims more positions than the grid has
// could emit matches outside the grid; it must be rejected when decoded.
func TestHierarchicalRejectsOversizedNodeBitmap(t *testing.T) {
	data, shape := testData(t)
	fs := pfs.New(pfs.DefaultConfig())
	clk := pfs.NewClock()
	st, err := Build(fs, clk, "big/hier", shape, data, hierTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := fs.ReadFile(clk, st.vidx.path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range st.vidx.offs {
		binary.LittleEndian.PutUint64(raw[off:], 1<<50) // the WAH bit-length field
	}
	if err := fs.WriteFile(clk, st.vidx.path, raw); err != nil {
		t.Fatal(err)
	}
	// Wide enough to hold an inner node: the vindex stores no leaf.
	lo, hi := datagen.Selectivity(data, 0.7, 11, 1024)
	req := &query.Request{VC: &binning.ValueConstraint{Min: lo, Max: hi}, IndexOnly: true}
	if _, err := st.Query(req, 2); err == nil || !strings.Contains(err.Error(), "positions") {
		t.Fatalf("query over oversized node bitmaps: err = %v, want a vindex node size error", err)
	}
}
