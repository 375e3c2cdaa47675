package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanTreeIntegrity builds a small tree and checks the dump
// preserves parent/child structure, attrs, and virtual time.
func TestSpanTreeIntegrity(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "query")
	root.SetString("var", "phi")

	ctx1, rank := StartSpan(ctx, "rank")
	rank.SetInt("rank", 0)
	_, fetch := StartSpan(ctx1, "fetch")
	fetch.AddVirt(0.25)
	fetch.End()
	rank.Event("decode", 3*time.Millisecond, 0.5).SetInt("units", 7)
	rank.AddVirt(0.75)
	rank.End()
	root.End()

	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	d, ok := tr.DumpByID(root.TraceID())
	if !ok {
		t.Fatal("DumpByID missed the completed trace")
	}
	if d.Name != "query" || d.Spans != 4 || d.Dropped != 0 {
		t.Fatalf("dump header = %+v", d)
	}
	r := d.Root
	if r.Name != "query" || len(r.Children) != 1 {
		t.Fatalf("root = %+v", r)
	}
	rk := r.Children[0]
	if rk.Name != "rank" || len(rk.Children) != 2 {
		t.Fatalf("rank = %+v", rk)
	}
	if rk.Children[0].Name != "fetch" || rk.Children[1].Name != "decode" {
		t.Fatalf("children order = %s, %s", rk.Children[0].Name, rk.Children[1].Name)
	}
	if rk.Children[0].VirtS != 0.25 || rk.Children[1].VirtS != 0.5 || rk.VirtS != 0.75 {
		t.Errorf("virt = %v %v %v", rk.Children[0].VirtS, rk.Children[1].VirtS, rk.VirtS)
	}
	dec := rk.Children[1]
	if dec.WallMS != 3 || !dec.Ended || len(dec.Attrs) != 1 || dec.Attrs[0].Key != "units" {
		t.Errorf("event span = %+v", dec)
	}
	if got := d.Root.SumVirt(nil); got != 1.5 {
		t.Errorf("SumVirt = %v, want 1.5", got)
	}
	if f := d.Root.Find("fetch"); f == nil || f.VirtS != 0.25 {
		t.Errorf("Find(fetch) = %+v", f)
	}
	for _, s := range []*SpanDump{r, rk, rk.Children[0]} {
		if !s.Ended {
			t.Errorf("span %s not marked ended", s.Name)
		}
	}
}

// TestSpanTreeUnderCancelledContext proves cancellation does not
// corrupt the tree: spans started before and after cancel still link to
// the right parents, and context values survive cancellation (span
// propagation uses the value chain, which cancel does not sever).
func TestSpanTreeUnderCancelledContext(t *testing.T) {
	tr := NewTracer(4)
	base, cancel := context.WithCancel(context.Background())
	ctx, root := tr.StartTrace(base, "query")

	ctx1, rank := StartSpan(ctx, "rank")
	_, before := StartSpan(ctx1, "bin_before_cancel")
	before.End()
	cancel()
	ctx2, after := StartSpan(ctx1, "bin_after_cancel")
	if after == nil {
		t.Fatal("StartSpan returned nil span on a cancelled (but traced) context")
	}
	if SpanFromContext(ctx2) != after {
		t.Fatal("cancelled context lost span propagation")
	}
	after.SetBool("cancelled", ctx2.Err() != nil)
	after.End()
	rank.End()
	root.End()

	d, ok := tr.DumpByID(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	rk := d.Root.Find("rank")
	if rk == nil || len(rk.Children) != 2 {
		t.Fatalf("rank subtree = %+v", rk)
	}
	if rk.Children[0].Name != "bin_before_cancel" || rk.Children[1].Name != "bin_after_cancel" {
		t.Fatalf("children = %s, %s", rk.Children[0].Name, rk.Children[1].Name)
	}
	if len(rk.Children[1].Attrs) != 1 || rk.Children[1].Attrs[0].Value != true {
		t.Errorf("cancelled attr = %+v", rk.Children[1].Attrs)
	}
}

// TestRingBufferEvictionOrder fills the ring past capacity and checks
// Dump returns newest-first with the oldest traces evicted.
func TestRingBufferEvictionOrder(t *testing.T) {
	tr := NewTracer(3)
	ids := make([]uint64, 0, 5)
	for i := 0; i < 5; i++ {
		_, root := tr.StartTrace(context.Background(), fmt.Sprintf("op%d", i))
		ids = append(ids, root.TraceID())
		root.End()
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	dumps := tr.Dump()
	if len(dumps) != 3 {
		t.Fatalf("Dump returned %d traces", len(dumps))
	}
	// Newest first: op4, op3, op2.
	for i, want := range []string{"op4", "op3", "op2"} {
		if dumps[i].Name != want {
			t.Errorf("Dump[%d] = %s, want %s", i, dumps[i].Name, want)
		}
	}
	for _, id := range ids[:2] {
		if _, ok := tr.DumpByID(id); ok {
			t.Errorf("evicted trace %d still retrievable", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := tr.DumpByID(id); !ok {
			t.Errorf("retained trace %d not retrievable", id)
		}
	}
}

// TestNilSpanNoops drives every method through a nil span — the no-op
// path every uninstrumented request takes.
func TestNilSpanNoops(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "anything")
	if sp != nil {
		t.Fatal("StartSpan on untraced context returned non-nil span")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("untraced context should carry no span")
	}
	sp.SetString("k", "v")
	sp.SetInt("k", 1)
	sp.SetFloat("k", 1.5)
	sp.SetBool("k", true)
	sp.AddVirt(1)
	if sp.Event("child", time.Second, 1) != nil {
		t.Error("nil.Event returned non-nil span")
	}
	if sp.TraceID() != 0 {
		t.Error("nil.TraceID != 0")
	}
	sp.End() // must not panic
}

// TestNoopSpanZeroAlloc gates the acceptance criterion: the no-op
// recorder adds zero allocations per span on the hot path.
func TestNoopSpanZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "decode")
		sp.SetInt("bytes", 4096)
		sp.AddVirt(0.001)
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("no-op span path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestMaxSpansBound checks the per-trace span cap drops (and counts)
// spans beyond the bound without corrupting the tree.
func TestMaxSpansBound(t *testing.T) {
	tr := NewTracer(2)
	ctx, root := tr.StartTrace(context.Background(), "query")
	for i := 1; i < DefaultMaxSpans; i++ {
		_, s := StartSpan(ctx, "a")
		if s == nil {
			t.Fatalf("span %d under the bound was dropped", i+1)
		}
		s.End()
	}
	if _, c := StartSpan(ctx, "c"); c != nil {
		t.Fatal("span over the bound was not dropped")
	}
	root.End()
	d, _ := tr.DumpByID(root.TraceID())
	if d.Spans != DefaultMaxSpans || d.Dropped != 1 {
		t.Errorf("spans=%d dropped=%d, want %d/1", d.Spans, d.Dropped, DefaultMaxSpans)
	}
	if got := len(d.Root.Children); got != DefaultMaxSpans-1 {
		t.Errorf("root holds %d children, want %d", got, DefaultMaxSpans-1)
	}
}

// TestConcurrentSpans exercises parallel ranks appending children and
// attrs to a shared parent while another goroutine scrapes Dump; run
// under -race this is the tracer's concurrency proof.
func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(8)
	ctx, root := tr.StartTrace(context.Background(), "query")
	var wg sync.WaitGroup
	for rank := 0; rank < 8; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rctx, rs := StartSpan(ctx, "rank")
			rs.SetInt("rank", int64(rank))
			for bin := 0; bin < 20; bin++ {
				_, bs := StartSpan(rctx, "bin")
				bs.SetInt("bin", int64(bin))
				bs.AddVirt(0.001)
				bs.End()
			}
			rs.End()
		}(rank)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Dump()
		}
	}()
	wg.Wait()
	<-done
	root.End()
	d, ok := tr.DumpByID(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(d.Root.Children) != 8 {
		t.Fatalf("root has %d children, want 8", len(d.Root.Children))
	}
	total := 0
	for _, rk := range d.Root.Children {
		total += len(rk.Children)
	}
	if total != 8*20 {
		t.Errorf("bin spans = %d, want %d", total, 8*20)
	}
	if got := d.Root.SumVirt(func(s *SpanDump) bool { return s.Name == "bin" }); got < 0.159 || got > 0.161 {
		t.Errorf("SumVirt(bin) = %v, want 0.16", got)
	}
}

// TestRenderTree pins the human-readable renderer used by mlocctl
// trace.
func TestRenderTree(t *testing.T) {
	tr := NewTracer(1)
	ctx, root := tr.StartTrace(context.Background(), "query")
	_, child := StartSpan(ctx, "plan")
	child.SetInt("bins", 4)
	child.End()
	root.AddVirt(0.0125)
	root.End()
	d, _ := tr.DumpByID(root.TraceID())
	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`trace 1 "query" (2 spans)`, "query", "plan", "virt 0.012500s", "bins=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "UNENDED") {
		t.Errorf("render flagged ended spans:\n%s", out)
	}
}

// TestDumpOfLiveTraceMarksUnended checks a dump taken mid-flight (via
// Dump of a retained trace whose child was never ended) flags the
// un-ended span.
func TestDumpOfLiveTraceMarksUnended(t *testing.T) {
	tr := NewTracer(1)
	ctx, root := tr.StartTrace(context.Background(), "query")
	_, _ = StartSpan(ctx, "leaked")
	root.End()
	d, _ := tr.DumpByID(root.TraceID())
	leaked := d.Root.Find("leaked")
	if leaked == nil || leaked.Ended {
		t.Fatalf("leaked span = %+v, want unended", leaked)
	}
	var sb strings.Builder
	if err := d.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "UNENDED") {
		t.Errorf("render did not flag the unended span:\n%s", sb.String())
	}
}
