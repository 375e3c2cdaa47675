package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

func TestExplainMatchesExecution(t *testing.T) {
	st, data, _ := buildTestStore(t, testConfig())
	lo, hi := datagen.Selectivity(data, 0.1, 3, 1024)
	vc := binning.ValueConstraint{Min: lo, Max: hi}
	sc, _ := grid.NewRegion([]int{4, 4}, []int{24, 28})
	req := &query.Request{VC: &vc, SC: &sc}

	plan, err := st.Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Query(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The plan's data-unit count must equal the executed BlocksRead.
	if plan.UnitsWithData != res.BlocksRead {
		t.Errorf("plan UnitsWithData %d != executed BlocksRead %d", plan.UnitsWithData, res.BlocksRead)
	}
	// Bins in the plan must match BinsAccessed.
	if plan.AlignedBins+plan.MisalignedBins < res.BinsAccessed {
		t.Errorf("plan bins %d+%d < executed bins %d",
			plan.AlignedBins, plan.MisalignedBins, res.BinsAccessed)
	}
	// Points bound the matches.
	if int64(len(res.Matches)) > plan.Points {
		t.Errorf("matches %d exceed plan's candidate points %d", len(res.Matches), plan.Points)
	}
	// Estimated bytes bound the actual reads from below (gap merging
	// can only add bytes).
	if res.BytesRead < plan.IndexBytes+plan.DataBytes {
		t.Errorf("executed bytes %d below plan estimate %d",
			res.BytesRead, plan.IndexBytes+plan.DataBytes)
	}

	// Without gap merging (a zero seek latency makes CoalesceGap 0) and
	// without a cache the estimate is exact: Explain folds over the plan
	// the executor runs and prices a unit from the extents it reads, so
	// the two cannot drift. Random requests of every kind, on a flat and
	// a hierarchical store, over 1–4 ranks.
	pcfg := pfs.DefaultConfig()
	pcfg.SeekLatency = 0
	fs := pfs.New(pcfg)
	if fs.CoalesceGap() != 0 {
		t.Fatalf("CoalesceGap = %d with zero seek latency", fs.CoalesceGap())
	}
	data, shape := testData(t)
	flatCfg, hierCfg := testConfig(), testConfig()
	hierCfg.HierarchicalIndex = true
	r := rand.New(rand.NewSource(20))
	for _, sc := range []struct {
		name string
		cfg  Config
	}{{"flat", flatCfg}, {"hier", hierCfg}} {
		name := sc.name
		st, err := Build(fs, fs.NewClock(), "exact/"+name, shape, data, sc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 150; i++ {
			req := &query.Request{}
			kind := r.Intn(4) // VC, SC, both, index-only VC (±SC)
			if kind != 1 {
				lo, hi := datagen.Selectivity(data, 0.02+0.7*r.Float64(), int64(i), 512)
				req.VC = &binning.ValueConstraint{Min: lo, Max: hi}
			}
			if kind == 1 || kind == 2 || (kind == 3 && r.Intn(2) == 0) {
				x0, y0 := r.Intn(shape[0]), r.Intn(shape[1])
				sc, err := grid.NewRegion([]int{x0, y0}, []int{x0 + 1 + r.Intn(shape[0]-x0), y0 + 1 + r.Intn(shape[1]-y0)})
				if err != nil {
					t.Fatal(err)
				}
				req.SC = &sc
			}
			req.IndexOnly = kind == 3
			if !req.IndexOnly && r.Intn(2) == 0 {
				req.PLoDLevel = 1 + r.Intn(7)
			}
			label := fmt.Sprintf("%s request %d (%+v)", name, i, *req)
			plan, err := st.Explain(req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, err := st.Query(req, 1+r.Intn(4))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got, want := res.BytesRead, plan.IndexBytes+plan.DataBytes; got != want {
				t.Fatalf("%s: executed %d bytes, plan prices %d index + %d data", label, got, plan.IndexBytes, plan.DataBytes)
			}
			if plan.UnitsWithData != res.BlocksRead || plan.IndexNodes != res.IndexNodesRead {
				t.Fatalf("%s: plan has %d data units and %d index nodes, execution decoded %d and read %d",
					label, plan.UnitsWithData, plan.IndexNodes, res.BlocksRead, res.IndexNodesRead)
			}
			// The bin counts the plan carries are the flat scheme's, on
			// the hierarchical path too.
			wantAligned, wantMis := st.NumBins(), 0
			if req.VC != nil {
				a, m := st.Scheme().SelectBins(*req.VC)
				wantAligned, wantMis = len(a), len(m)
			}
			if plan.AlignedBins != wantAligned || plan.MisalignedBins != wantMis {
				t.Fatalf("%s: plan bins %d aligned + %d misaligned, SelectBins gives %d + %d",
					label, plan.AlignedBins, plan.MisalignedBins, wantAligned, wantMis)
			}
		}
	}
}

func TestExplainIndexOnlySkipsData(t *testing.T) {
	st, _, _ := buildTestStore(t, testConfig())
	bounds := st.Scheme().Bounds()
	vc := binning.ValueConstraint{Min: bounds[2], Max: bounds[5]}
	plan, err := st.Explain(&query.Request{VC: &vc, IndexOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.MisalignedBins == 0 && plan.UnitsWithData != 0 {
		t.Errorf("aligned-only index plan has %d data units", plan.UnitsWithData)
	}
	if plan.DataBytes != 0 && plan.MisalignedBins == 0 {
		t.Errorf("aligned-only index plan estimates %d data bytes", plan.DataBytes)
	}
}

func TestExplainPLoDPlanes(t *testing.T) {
	st, _, _ := buildTestStore(t, testConfig())
	sc, _ := grid.NewRegion([]int{0, 0}, []int{16, 16})
	full, err := st.Explain(&query.Request{SC: &sc})
	if err != nil {
		t.Fatal(err)
	}
	lvl2, err := st.Explain(&query.Request{SC: &sc, PLoDLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if full.PlanesRead != 7 || lvl2.PlanesRead != 2 {
		t.Fatalf("PlanesRead = %d / %d, want 7 / 2", full.PlanesRead, lvl2.PlanesRead)
	}
	if lvl2.DataBytes >= full.DataBytes {
		t.Errorf("PLoD-2 plan bytes %d not below full %d", lvl2.DataBytes, full.DataBytes)
	}
}

func TestExplainValidation(t *testing.T) {
	st, _, _ := buildTestStore(t, testConfig())
	bad := binning.ValueConstraint{Min: 1, Max: 0}
	if _, err := st.Explain(&query.Request{VC: &bad}); err == nil {
		t.Error("inverted VC accepted")
	}
	iso := ISOConfig([]int{8, 8})
	iso.NumBins = 6
	isoStore, _, _ := buildTestStore(t, iso)
	if _, err := isoStore.Explain(&query.Request{PLoDLevel: 2}); err == nil {
		t.Error("PLoD plan accepted in floats mode")
	}
}

func TestPlanRender(t *testing.T) {
	st, _, _ := buildTestStore(t, testConfig())
	plan, err := st.Explain(&query.Request{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"plan (order V-M-S)", "bins:", "chunks selected", "est. I/O"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
