package core

// Tracing acceptance tests for the instrumented engine: each rank's
// fetch/decode/reassemble/filter events must sum to the rank's virtual
// total, the slowest rank must equal the reported query latency — the
// span tree is the latency, decomposed — and a trace's span count must
// not grow with the store's bin count.

import (
	"context"
	"math"
	"strings"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
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

// stageEvents are the events a rank span holds, one per stage.
var stageEvents = []string{"fetch", "decode", "reassemble", "filter"}

// checkRanks asserts the trace shape under parent: each rank span among
// its children holds exactly the four stage events, ended, whose virtual
// seconds sum to the rank's virt_total_s. It returns the number of rank
// spans and the slowest rank's total.
func checkRanks(t *testing.T, parent *obs.SpanDump) (ranks int, slowest float64) {
	t.Helper()
	for _, rank := range parent.Children {
		if rank.Name != "rank" {
			continue
		}
		ranks++
		if !rank.Ended {
			t.Errorf("rank span not ended: %+v", rank.Attrs)
		}
		total, ok := attrFloat(rank, "virt_total_s")
		if !ok {
			t.Fatalf("rank span missing virt_total_s attr: %+v", rank.Attrs)
		}
		if len(rank.Children) != len(stageEvents) {
			t.Fatalf("rank span has %d children, want the %d stage events", len(rank.Children), len(stageEvents))
		}
		var sum float64
		for i, ev := range rank.Children {
			if ev.Name != stageEvents[i] || !ev.Ended || len(ev.Children) != 0 {
				t.Errorf("rank child %d is %q (ended %v, %d children), want an ended %s event",
					i, ev.Name, ev.Ended, len(ev.Children), stageEvents[i])
			}
			sum += ev.VirtS
		}
		if math.Abs(sum-total) > 1e-9 {
			t.Errorf("rank stage events sum to %v, rank virtual total is %v", sum, total)
		}
		slowest = max(slowest, total)
	}
	return ranks, slowest
}

// sumSlowestRanks walks the tree and adds up, over every span that
// parents ranks (one per rank-parallel phase of the access), its
// slowest rank's total — what the access reports as its latency. It
// fails on any span named bin or vindex: the query path traces per
// stage, not per bin or node.
func sumSlowestRanks(t *testing.T, d *obs.SpanDump) float64 {
	t.Helper()
	if d.Name == "bin" || d.Name == "vindex" {
		t.Errorf("trace has a %s span", d.Name)
	}
	_, latency := checkRanks(t, d)
	for _, c := range d.Children {
		if c.Name != "rank" {
			latency += sumSlowestRanks(t, c)
		}
	}
	return latency
}

// traced runs fn under a fresh tracer, at the default per-trace span
// cap, and returns the retained trace, failing if any span was dropped.
func traced(t *testing.T, fn func(ctx context.Context)) obs.TraceDump {
	t.Helper()
	tr := obs.NewTracer(1)
	ctx, root := tr.StartTrace(context.Background(), "query")
	fn(ctx)
	root.End()
	td, ok := tr.DumpByID(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if td.Dropped != 0 {
		t.Errorf("trace dropped %d spans at the cap", td.Dropped)
	}
	return td
}

// TestQuerySpanTreeSumsToLatency: on every plan shape the executor runs
// — flat value query, spatial-only query, hierarchical index-only query
// answered partly from vindex nodes, position fetch, and the two-phase
// multi-variable access — each rank's four stage events sum to the
// rank's virtual total, and the slowest rank of each phase accounts for
// the reported latency: the span tree is the latency, decomposed.
func TestQuerySpanTreeSumsToLatency(t *testing.T) {
	data, shape := obsTestData(t)
	fs := pfs.New(pfs.DefaultConfig())
	build := func(prefix string, hier bool) *Store {
		cfg := DefaultConfig([]int{16, 16})
		cfg.NumBins = 16
		cfg.HierarchicalIndex = hier
		st, err := Build(fs, fs.NewClock(), prefix, shape, data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	flat, hier, other := build("q/flat", false), build("q/hier", true), build("q/other", false)
	vc := obsTestVC(data)
	positions := bitmap.New(shape.Elems())
	for i := int64(0); i < shape.Elems(); i += 7 {
		positions.Set(i)
	}

	for _, tc := range []struct {
		name string
		// nodes: the row must answer part of the query from vindex nodes.
		nodes bool
		run   func(ctx context.Context) (*query.Result, error)
	}{
		{"flat VC", false, func(ctx context.Context) (*query.Result, error) {
			return flat.QueryContext(ctx, &query.Request{VC: vc}, 4)
		}},
		{"SC only", false, func(ctx context.Context) (*query.Result, error) {
			sc := &grid.Region{Lo: []int{5, 9}, Hi: []int{41, 60}}
			return flat.QueryContext(ctx, &query.Request{SC: sc}, 4)
		}},
		{"hierarchical index-only", true, func(ctx context.Context) (*query.Result, error) {
			return hier.QueryContext(ctx, &query.Request{VC: vc, IndexOnly: true}, 4)
		}},
		{"FetchAt", false, func(ctx context.Context) (*query.Result, error) {
			return flat.FetchAtContext(ctx, positions, 4)
		}},
		{"MultiVarQuery", false, func(ctx context.Context) (*query.Result, error) {
			req := MultiVarRequest{Select: query.Request{VC: vc}, FetchVars: []string{"b"}}
			mv, err := MultiVarQueryContext(ctx, map[string]*Store{"a": flat, "b": other}, "a", req, 2)
			if err != nil {
				return nil, err
			}
			return &query.Result{Matches: mv.Values["b"], Time: mv.Time}, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res *query.Result
			td := traced(t, func(ctx context.Context) {
				var err error
				if res, err = tc.run(ctx); err != nil {
					t.Fatal(err)
				}
			})
			if len(res.Matches) == 0 {
				t.Fatal("access matched nothing; test data or predicate is broken")
			}
			if tc.nodes && res.IndexNodesRead == 0 {
				t.Fatal("query read no vindex nodes; the row does not cover the node path")
			}
			if td.Root.Find("plan") == nil {
				t.Error("trace has no plan span")
			}
			if td.Root.Find("rank") == nil {
				t.Fatal("trace has no rank spans")
			}
			if got, want := sumSlowestRanks(t, td.Root), res.Time.Total(); math.Abs(got-want) > 1e-9 {
				t.Errorf("slowest ranks' totals sum to %v, reported latency is %v", got, want)
			}
		})
	}
}

// binsStore builds the obs test variable at 128² into a store of the
// given bin count.
func binsStore(t *testing.T, bins int) *Store {
	t.Helper()
	d := datagen.GTSLike(128, 128, 1)
	v, err := d.Var("phi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig([]int{16, 16})
	cfg.NumBins = bins
	fs := pfs.New(pfs.DefaultConfig())
	st, err := Build(fs, fs.NewClock(), "cap/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTraceFitsSpanCapAt1024Bins: an unconstrained query over a
// 1024-bin store visits every bin, and its trace still records every
// span and adds up. A span per bin would overflow obs.DefaultMaxSpans
// here, and the dropped spans' time would be missing from the ranks.
func TestTraceFitsSpanCapAt1024Bins(t *testing.T) {
	st := binsStore(t, 1024)
	const ranks = 4
	var res *query.Result
	td := traced(t, func(ctx context.Context) {
		var err error
		if res, err = st.QueryContext(ctx, &query.Request{}, ranks); err != nil {
			t.Fatal(err)
		}
	})
	if res.BinsAccessed < obs.DefaultMaxSpans/5 {
		t.Fatalf("query visited %d bins; too few to have overflowed a span per bin", res.BinsAccessed)
	}
	n, slowest := checkRanks(t, td.Root)
	if n != ranks {
		t.Errorf("trace has %d rank spans, want %d", n, ranks)
	}
	if math.Abs(slowest-res.Time.Total()) > 1e-9 {
		t.Errorf("slowest rank total %v != reported latency %v", slowest, res.Time.Total())
	}
}

// TestSpanCountIndependentOfBins: a query's trace costs O(ranks) spans —
// the root, the plan, and per rank its span plus four stage events —
// whatever the store's bin count.
func TestSpanCountIndependentOfBins(t *testing.T) {
	const ranks = 4
	var counts []int64
	for _, bins := range []int{16, 1024} {
		st := binsStore(t, bins)
		td := traced(t, func(ctx context.Context) {
			if _, err := st.QueryContext(ctx, &query.Request{}, ranks); err != nil {
				t.Fatal(err)
			}
		})
		if td.Spans > 2+5*ranks {
			t.Errorf("%d bins: trace has %d spans, want at most %d", bins, td.Spans, 2+5*ranks)
		}
		counts = append(counts, td.Spans)
	}
	if counts[0] != counts[1] {
		t.Errorf("span count %d at 16 bins, %d at 1024: it must not depend on the bin count", counts[0], counts[1])
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

	req := MultiVarRequest{
		Select:    query.Request{VC: obsTestVC(data)},
		FetchVars: []string{"b"},
	}
	var res *MultiVarResult
	td := traced(t, func(ctx context.Context) {
		var err error
		if res, err = MultiVarQueryContext(ctx, stores, "a", req, 2); err != nil {
			t.Fatal(err)
		}
	})
	if res.Positions.Count() == 0 {
		t.Fatal("selection matched nothing")
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
	// A position fetch is the query pipeline: planned, then run per rank
	// with its stage events.
	if fv.Find("plan") == nil {
		t.Error("fetch_var span has no plan span")
	}
	if n, _ := checkRanks(t, fv); n != 2 {
		t.Errorf("fetch_var span has %d rank children, want 2", n)
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
	if n, ok := attrFloat(binPass, "workers"); !ok || n != 2 {
		t.Errorf("pass_binning workers attr = %v, %v; want 2", n, ok)
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
