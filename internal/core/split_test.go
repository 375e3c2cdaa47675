package core

import (
	"math"
	"slices"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

// rankPrice prices one rank's share of a plan from its extents alone:
// each bin's index extents and data pieces, and the node steps' bitmaps,
// as one read batch each through pfs.Sim.PriceRead — the split's model
// with none of its shortcuts.
func rankPrice(s *Store, p *plan, tasks []task, nodes []binning.NodeRef, ranks int) float64 {
	var sc pfs.PriceScratch
	c := float64(ranks)
	price := 0.0
	for lo := 0; lo < len(tasks); {
		hi := lo + 1
		for hi < len(tasks) && tasks[hi].bin == tasks[lo].bin {
			hi++
		}
		bin := tasks[lo].bin
		var idx, data []pfs.Extent
		for _, t := range tasks[lo:hi] {
			u := &s.meta.bins[bin].units[t.unit]
			idx = append(idx, pfs.Extent{Off: u.indexOff, Len: u.indexLen})
			if t.needData {
				data = u.appendPieces(data, p.pieces)
			}
		}
		price += s.fs.PriceRead(&sc, s.fs.FileOST(binIndexPath(s.prefix, bin)), idx, c)
		price += s.fs.PriceRead(&sc, s.fs.FileOST(binDataPath(s.prefix, bin)), data, c)
		lo = hi
	}
	var ext []pfs.Extent
	for _, n := range nodes {
		id := s.vidx.nodeID(n)
		ext = append(ext, pfs.Extent{Off: s.vidx.offs[id], Len: s.vidx.lens[id]})
	}
	return price + s.fs.PriceRead(&sc, s.fs.FileOST(s.vidx.path), ext, c)
}

// TestSplitByCost pins the column split as a pure function of the plan
// on three plan shapes: a value_subvol-shaped sub-volume read, an
// index-only region query, and a region query answered mostly from
// vindex node steps; the first two also at a byte scale where bins read
// as several coalesced extents. The ranks' slices must concatenate back to the
// plan in column order, repeat exactly, spread node steps over ranks,
// and leave the dearest rank no dearer than the equal-count split's.
func TestSplitByCost(t *testing.T) {
	d := datagen.GTSLike(256, 256, 7)
	phi, _ := d.Var("phi")
	cfg := DefaultConfig([]int{32, 32})
	cfg.NumBins = 100
	cfg.SampleSize = 1 << 14
	cfg.HierarchicalIndex = true
	fs := pfs.New(pfs.DefaultConfig())
	st, err := Build(fs, pfs.NewClock(), "split/phi", d.Shape, phi.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same store at a byte scale where coalescing gaps are a few
	// hundred bytes, so runs inside a bin break into several reads.
	scaledCfg := pfs.DefaultConfig()
	scaledCfg.ByteScale = 1000
	scaledFS := pfs.New(scaledCfg)
	scaled, err := Build(scaledFS, pfs.NewClock(), "split/phi", d.Shape, phi.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vc := func(frac float64) *binning.ValueConstraint {
		lo, hi := datagen.Selectivity(phi.Data, frac, 5, 4096)
		return &binning.ValueConstraint{Min: lo, Max: hi}
	}
	sub := grid.Region{Lo: []int{90, 70}, Hi: []int{154, 134}}
	const ranks = 4
	for _, c := range []struct {
		name      string
		st        *Store
		req       query.Request
		wantNodes bool
	}{
		{"subvol", st, query.Request{SC: &sub}, false},
		{"region", st, query.Request{VC: vc(0.01), IndexOnly: true}, false},
		{"hier", st, query.Request{VC: vc(0.30), IndexOnly: true}, true},
		{"scaled/subvol", scaled, query.Request{SC: &sub}, false},
		{"scaled/region", scaled, query.Request{VC: vc(0.01), IndexOnly: true}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := c.st
			p, err := st.planQuery(&c.req)
			if err != nil {
				t.Fatal(err)
			}
			if c.wantNodes && len(p.nodes) < ranks {
				t.Fatalf("plan has %d node steps; the case needs at least %d", len(p.nodes), ranks)
			}
			var sp1, sp2 splitScratch
			tasks, nodes := st.assign(p, ranks, &sp1)
			tasks2, nodes2 := st.assign(p, ranks, &sp2)

			var allTasks []task
			var allNodes []binning.NodeRef
			withNodes := 0
			worst := 0.0
			for r := 0; r < ranks; r++ {
				if !slices.Equal(tasks[r], tasks2[r]) {
					t.Errorf("rank %d: two splits of one plan differ in tasks", r)
				}
				allTasks = append(allTasks, tasks[r]...)
				var rn []binning.NodeRef
				if nodes != nil {
					rn = nodes[r]
					if !slices.Equal(rn, nodes2[r]) {
						t.Errorf("rank %d: two splits of one plan differ in node steps", r)
					}
					allNodes = append(allNodes, rn...)
					if len(rn) > 0 {
						withNodes++
					}
				}
				price := rankPrice(st, p, tasks[r], rn, ranks)
				if got := st.runPrice(p, &sp1, sp1.cuts[r], sp1.cuts[r+1], ranks); math.Abs(got-price) > 1e-12 {
					t.Errorf("rank %d: split prices its run at %.15g, its extents price at %.15g", r, got, price)
				}
				worst = max(worst, price)
			}
			if !slices.Equal(allTasks, p.tasks) {
				t.Errorf("rank slices hold %d tasks that are not the plan's %d in column order", len(allTasks), len(p.tasks))
			}
			if !slices.Equal(allNodes, p.nodes) {
				t.Errorf("rank slices hold node steps %v, plan has %v", allNodes, p.nodes)
			}
			if c.wantNodes && withNodes < 2 {
				t.Errorf("%d node steps all on %d rank(s)", len(p.nodes), withNodes)
			}

			// The equal-count split of the same steps.
			steps := len(p.tasks) + len(p.nodes)
			per := (steps + ranks - 1) / ranks
			equal := 0.0
			for r := 0; r < ranks; r++ {
				lo, hi := min(r*per, steps), min(r*per+per, steps)
				nt := len(p.tasks)
				equal = max(equal, rankPrice(st, p, p.tasks[min(lo, nt):min(hi, nt)], p.nodes[max(lo, nt)-nt:max(hi, nt)-nt], ranks))
			}
			if worst > equal {
				t.Errorf("dearest rank %.6fs above the equal-count split's %.6fs", worst, equal)
			}
			wide := 0
			for _, g := range sp1.groups {
				if g.off >= 0 {
					wide++
				}
			}
			t.Logf("%d tasks and %d node steps in %d runs (%d with wide gaps): dearest rank %.6fs, equal-count %.6fs",
				len(p.tasks), len(p.nodes), len(sp1.groups), wide, worst, equal)
		})
	}
}
