package core

// Tracing acceptance tests for the instrumented engine: the per-rank
// fetch/decode/reassemble/filter span events must sum to the rank's
// virtual total, and the slowest rank must equal the reported query
// latency — the span tree is the latency, decomposed.

import (
	"context"
	"math"
	"strings"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/obs"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

func obsTestData(t *testing.T) ([]float64, grid.Shape) {
	t.Helper()
	d := datagen.GTSLike(64, 64, 1)
	v, err := d.Var("phi")
	if err != nil {
		t.Fatal(err)
	}
	return v.Data, d.Shape
}

func obsTestVC(data []float64) *binning.ValueConstraint {
	lo, hi := data[0], data[0]
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// Half the value range so the query selects some bins but not all.
	return &binning.ValueConstraint{Min: lo, Max: lo + 0.5*(hi-lo)}
}

func attrFloat(d *obs.SpanDump, key string) (float64, bool) {
	for _, a := range d.Attrs {
		if a.Key != key {
			continue
		}
		switch v := a.Value.(type) {
		case float64:
			return v, true
		case int64:
			return float64(v), true
		}
	}
	return 0, false
}

// componentEvent selects the leaf cost events the engine emits per bin.
func componentEvent(d *obs.SpanDump) bool {
	switch d.Name {
	case "fetch", "decode", "reassemble", "filter":
		return true
	}
	return false
}

func TestQuerySpanTreeSumsToLatency(t *testing.T) {
	data, shape := obsTestData(t)
	cfg := DefaultConfig([]int{16, 16})
	cfg.NumBins = 16
	fs := pfs.New(pfs.DefaultConfig())
	clk := fs.NewClock()
	st, err := Build(fs, clk, "q/phi", shape, data, cfg)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "query")
	req := &query.Request{VC: obsTestVC(data)}
	res, err := st.QueryContext(ctx, req, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("query matched nothing; test data or VC is broken")
	}
	root.End()

	dumps := tr.Dump()
	if len(dumps) != 1 {
		t.Fatalf("retained %d traces, want 1", len(dumps))
	}
	td := dumps[0]
	if td.Root.Find("plan") == nil {
		t.Error("trace has no plan span")
	}

	var ranks int
	var slowest float64
	for _, child := range td.Root.Children {
		if child.Name != "rank" {
			continue
		}
		ranks++
		if !child.Ended {
			t.Errorf("rank span not ended: %+v", child)
		}
		total, ok := attrFloat(child, "virt_total_s")
		if !ok {
			t.Fatalf("rank span missing virt_total_s attr: %+v", child.Attrs)
		}
		evSum := child.SumVirt(componentEvent)
		if math.Abs(evSum-total) > 1e-9 {
			t.Errorf("rank events sum to %v, rank virtual total is %v", evSum, total)
		}
		if total > slowest {
			slowest = total
		}
		for _, bin := range child.Children {
			if bin.Name != "bin" {
				continue
			}
			if !bin.Ended {
				t.Errorf("bin span not ended")
			}
			if _, ok := attrFloat(bin, "bin"); !ok {
				t.Errorf("bin span missing bin attr: %+v", bin.Attrs)
			}
		}
	}
	if ranks == 0 {
		t.Fatal("trace has no rank spans")
	}
	// The acceptance criterion: the slowest rank's span events account
	// for the reported query latency.
	if math.Abs(slowest-res.Time.Total()) > 1e-9 {
		t.Errorf("slowest rank span total %v != reported latency %v", slowest, res.Time.Total())
	}
}

func TestMultiVarSpans(t *testing.T) {
	data, shape := obsTestData(t)
	cfg := DefaultConfig([]int{16, 16})
	cfg.NumBins = 16
	fs := pfs.New(pfs.DefaultConfig())
	clk := fs.NewClock()
	stores := map[string]*Store{}
	for _, name := range []string{"a", "b"} {
		st, err := Build(fs, clk, "mv/"+name, shape, data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stores[name] = st
	}

	tr := obs.NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "multivar")
	req := MultiVarRequest{
		Select:    query.Request{VC: obsTestVC(data)},
		FetchVars: []string{"b"},
	}
	res, err := MultiVarQueryContext(ctx, stores, "a", req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Positions.Count() == 0 {
		t.Fatal("selection matched nothing")
	}
	root.End()

	td, ok := tr.DumpByID(1)
	if !ok {
		t.Fatal("trace not retained")
	}
	sel := td.Root.Find("select")
	if sel == nil {
		t.Fatal("no select span")
	}
	if _, ok := attrFloat(sel, "positions"); !ok {
		t.Errorf("select span missing positions attr: %+v", sel.Attrs)
	}
	fv := td.Root.Find("fetch_var")
	if fv == nil {
		t.Fatal("no fetch_var span")
	}
	if fv.Find("rank") == nil {
		t.Error("fetch_var span has no rank children")
	}
	// A position fetch is the query pipeline: planned, then run per bin.
	if fv.Find("plan") == nil || fv.Find("bin") == nil {
		t.Error("fetch_var span has no plan or bin span")
	}
}

func TestBuildSpans(t *testing.T) {
	data, shape := obsTestData(t)
	cfg := DefaultConfig([]int{16, 16})
	cfg.NumBins = 16
	cfg.BuildWorkers = 2
	fs := pfs.New(pfs.DefaultConfig())
	clk := fs.NewClock()

	tr := obs.NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "build")
	if _, err := BuildContext(ctx, fs, clk, "bld/phi", shape, data, cfg); err != nil {
		t.Fatal(err)
	}
	root.End()

	td, ok := tr.DumpByID(1)
	if !ok {
		t.Fatal("trace not retained")
	}
	binPass := td.Root.Find("pass_binning")
	if binPass == nil {
		t.Fatal("no pass_binning span")
	}
	if binPass.VirtS <= 0 {
		t.Errorf("pass_binning virtual time %v, want > 0", binPass.VirtS)
	}
	if binPass.Find("worker") == nil {
		t.Error("pass_binning has no worker events")
	}
	if n, ok := attrFloat(binPass, "chunks"); !ok || n <= 0 {
		t.Errorf("pass_binning chunks attr = %v, %v", n, ok)
	}
	encPass := td.Root.Find("pass_encode")
	if encPass == nil {
		t.Fatal("no pass_encode span")
	}
	if encPass.Find("bin") == nil {
		t.Error("pass_encode has no per-bin events")
	}
	if !encPass.Ended || !binPass.Ended {
		t.Error("pass spans not ended")
	}
}

func TestExplainObserveMeasured(t *testing.T) {
	data, shape := obsTestData(t)
	cfg := DefaultConfig([]int{16, 16})
	cfg.NumBins = 16
	fs := pfs.New(pfs.DefaultConfig())
	clk := fs.NewClock()
	st, err := Build(fs, clk, "ex/phi", shape, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := &query.Request{VC: obsTestVC(data)}
	plan, err := st.Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.String(), "measured:") {
		t.Error("plan reports measured cost before execution")
	}
	res, err := st.Query(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan.Observe(res)
	if plan.Measured == nil {
		t.Fatal("Observe did not attach measured cost")
	}
	if got, want := plan.Measured.TotalSeconds(), res.Time.Total(); got != want {
		t.Errorf("measured total %v != result total %v", got, want)
	}
	if !strings.Contains(plan.String(), "measured:") {
		t.Error("plan String missing measured section after Observe")
	}
	if plan.Measured.Matches != len(res.Matches) {
		t.Errorf("measured matches %d != %d", plan.Measured.Matches, len(res.Matches))
	}
}
