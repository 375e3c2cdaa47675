package obs

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildWireTrace makes a small completed trace shaped like a data
// node's query: root -> rank -> {fetch, decode, filter} events with
// known virtual charges summing to wantVirt.
func buildWireTrace(t *testing.T, tr *Tracer, virts [3]float64) TraceDump {
	t.Helper()
	_, root := tr.StartTrace(context.Background(), "query")
	root.SetString("var", "phi")
	_, rank := StartSpan(ContextWithSpan(context.Background(), root), "rank")
	rank.SetInt("rank", 0)
	rank.Event("fetch", time.Millisecond, virts[0]).SetInt("bytes", 128)
	rank.Event("decode", time.Millisecond, virts[1])
	rank.Event("filter", time.Millisecond, virts[2]).SetInt("matches", 7)
	rank.End()
	root.End()
	td, ok := tr.DumpByID(root.TraceID())
	if !ok {
		t.Fatalf("completed trace %d not retained", root.TraceID())
	}
	return td
}

func TestTraceWireRoundTripByteIdentical(t *testing.T) {
	tr := NewTracer(4)
	td := buildWireTrace(t, tr, [3]float64{0.25, 0.125, 0.0625})
	first, err := EncodeTraceWire(td, 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	w, err := DecodeTraceWire(first, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	second, err := EncodeTraceWire(TraceDump{Spans: w.Spans, Dropped: w.Dropped}, 0)
	if err == nil {
		t.Fatalf("encode of empty tree should fail, got %q", second)
	}
	// Re-serialize the parsed tree and require byte identity with the
	// first encoding — the round-trip property the wire form promises.
	reencoded, err := EncodeTraceWire(TraceDump{Spans: w.Spans, Dropped: w.Dropped, Root: dumpFromWire(w.Root)}, 0)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(first, reencoded) {
		t.Fatalf("round trip not byte-identical:\n first=%s\nsecond=%s", first, reencoded)
	}
}

// dumpFromWire inverts WireFromDump for the round-trip test.
func dumpFromWire(w *SpanWire) *SpanDump {
	if w == nil {
		return nil
	}
	d := &SpanDump{Name: w.Name, WallMS: w.WallMS, VirtS: w.VirtS, Attrs: w.Attrs}
	if w.StartUnixNS != 0 {
		d.Start = time.Unix(0, w.StartUnixNS)
	}
	for _, c := range w.Children {
		d.Children = append(d.Children, dumpFromWire(c))
	}
	return d
}

func TestTraceWireRejectsBadPayloads(t *testing.T) {
	tr := NewTracer(4)
	td := buildWireTrace(t, tr, [3]float64{0.1, 0.2, 0.3})
	good, err := EncodeTraceWire(td, 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	cases := map[string][]byte{
		"truncated":     good[:len(good)/2],
		"trailing data": append(append([]byte{}, good...), []byte(`{"v":1}`)...),
		"bad version":   []byte(`{"v":99,"root":{"n":"query"}}`),
		"no version":    []byte(`{"root":{"n":"query"}}`),
		"missing root":  []byte(`{"v":1}`),
		"unknown field": []byte(`{"v":1,"root":{"n":"query"},"extra":true}`),
		"nameless span": []byte(`{"v":1,"root":{"n":"query","c":[{"w":1.5}]}}`),
		"null child":    []byte(`{"v":1,"root":{"n":"query","c":[null]}}`),
	}
	for name, payload := range cases {
		if _, err := DecodeTraceWire(payload, 0); err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}

	if _, err := DecodeTraceWire(good, len(good)-1); err == nil {
		t.Error("oversized payload accepted")
	}
	if _, err := EncodeTraceWire(td, 8); err == nil {
		t.Error("encoder exceeded its byte bound without error")
	}

	deep := strings.Repeat(`{"n":"s","c":[`, maxWireDepth+2) + `{"n":"leaf"}` + strings.Repeat(`]}`, maxWireDepth+2)
	if _, err := DecodeTraceWire([]byte(`{"v":1,"root":`+deep+`}`), 0); err == nil {
		t.Error("over-deep payload accepted")
	}
}

func TestGraftWireVirtSumAcrossTwoNodes(t *testing.T) {
	// Two simulated remote nodes, each serializing a completed query
	// tree; the local router grafts both under its fan-out spans. The
	// invariant: the grafted tree's leaf virtual times sum to exactly
	// the remote trees' totals, and a root credited with that total
	// reports it back out.
	remote := NewTracer(4)
	tdA := buildWireTrace(t, remote, [3]float64{0.5, 0.25, 0.125})
	tdB := buildWireTrace(t, remote, [3]float64{0.0625, 0.03125, 0.015625})
	wireA, err := EncodeTraceWire(tdA, 0)
	if err != nil {
		t.Fatalf("encode A: %v", err)
	}
	wireB, err := EncodeTraceWire(tdB, 0)
	if err != nil {
		t.Fatalf("encode B: %v", err)
	}

	local := NewTracer(4)
	ctx, root := local.StartTrace(context.Background(), "route")
	var virtSum float64
	for i, wire := range [][]byte{wireA, wireB} {
		w, err := DecodeTraceWire(wire, 0)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		_, shard := StartSpan(ctx, "shard")
		virt, dropped := shard.GraftWire(w, "node-a")
		if dropped != 0 {
			t.Fatalf("graft %d dropped %d spans", i, dropped)
		}
		virtSum += virt
		shard.End()
	}
	root.AddVirt(virtSum)
	root.End()

	td, ok := local.DumpByID(root.TraceID())
	if !ok {
		t.Fatal("grafted trace not retained")
	}
	want := 0.5 + 0.25 + 0.125 + 0.0625 + 0.03125 + 0.015625
	leafSum := td.Root.SumVirt(func(d *SpanDump) bool { return len(d.Children) == 0 })
	if math.Abs(leafSum-want) > 1e-12 {
		t.Errorf("grafted leaf virt sum = %v, want %v", leafSum, want)
	}
	if math.Abs(td.Root.VirtS-want) > 1e-12 {
		t.Errorf("root virt = %v, want the sum of its leaves %v", td.Root.VirtS, want)
	}
	// Both grafted subtrees are tagged with their node and render as
	// part of one tree.
	var sb strings.Builder
	if err := td.Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	if got := strings.Count(sb.String(), "node=node-a"); got != 2 {
		t.Errorf("rendered tree has %d node= attrs, want 2\n%s", got, sb.String())
	}
	if !strings.Contains(sb.String(), "decode") {
		t.Errorf("rendered tree lost the remote decode span\n%s", sb.String())
	}
}

func TestGraftWireHonorsMaxSpans(t *testing.T) {
	remote := NewTracer(4)
	td := buildWireTrace(t, remote, [3]float64{0.1, 0.2, 0.3})
	wire, err := EncodeTraceWire(td, 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	w, err := DecodeTraceWire(wire, 0)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	// Fill the trace to one span short of the bound: root, shard and
	// fillers, so exactly one grafted span fits.
	local := NewTracer(4)
	ctx, root := local.StartTrace(context.Background(), "route")
	_, shard := StartSpan(ctx, "shard")
	for i := 2; i < DefaultMaxSpans-1; i++ {
		_, fill := StartSpan(ctx, "fill")
		fill.End()
	}
	_, dropped := shard.GraftWire(w, "node-a")
	shard.End()
	root.End()

	remoteSpans := wireSpanCount(w.Root)
	if dropped != remoteSpans-1 {
		t.Errorf("graft dropped %d spans, want %d", dropped, remoteSpans-1)
	}
	out, ok := local.DumpByID(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	if out.Spans != DefaultMaxSpans {
		t.Errorf("trace recorded %d spans, want %d", out.Spans, DefaultMaxSpans)
	}
	if out.Dropped != remoteSpans-1 {
		t.Errorf("trace dropped = %d, want %d", out.Dropped, remoteSpans-1)
	}
}

func TestGraftWireRebasesClockSkew(t *testing.T) {
	// A remote clock 3 hours ahead must not fling grafted spans into
	// the future: starts are rebased so the grafted root coincides
	// with the local shard span and descendants keep their offsets.
	skew := 3 * time.Hour
	child := &SpanWire{Name: "decode", StartUnixNS: time.Now().Add(skew + 5*time.Millisecond).UnixNano(), VirtS: 0.5}
	w := &TraceWire{
		V:    TraceWireVersion,
		Root: &SpanWire{Name: "query", StartUnixNS: time.Now().Add(skew).UnixNano(), Children: []*SpanWire{child}},
	}

	local := NewTracer(4)
	ctx, root := local.StartTrace(context.Background(), "route")
	_, shard := StartSpan(ctx, "shard")
	shard.GraftWire(w, "n")
	shard.End()
	root.End()

	td, ok := local.DumpByID(root.TraceID())
	if !ok {
		t.Fatal("trace not retained")
	}
	grafted := td.Root.Find("query")
	if grafted == nil {
		t.Fatal("grafted root missing")
	}
	dec := td.Root.Find("decode")
	if dec == nil {
		t.Fatal("grafted child missing")
	}
	if dec.Start.Before(grafted.Start) || dec.Start.Sub(grafted.Start) > 100*time.Millisecond {
		t.Errorf("grafted child start %v not rebased near grafted root %v", dec.Start, grafted.Start)
	}
	if time.Until(dec.Start) > time.Hour {
		t.Errorf("grafted child start %v kept the remote clock skew", dec.Start)
	}
}

func TestDumpByIDOpenTracePartialTree(t *testing.T) {
	// A trace whose root has not ended (a routed query whose shard
	// subtrees are still in flight) must be introspectable as a
	// consistent partial tree, and must move to the ring once ended.
	tr := NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "route")
	_, shard := StartSpan(ctx, "shard")

	td, ok := tr.DumpByID(root.TraceID())
	if !ok {
		t.Fatal("open trace invisible to DumpByID")
	}
	if td.Root.Ended {
		t.Error("open trace root reported as ended")
	}
	if td.Root.Find("shard") == nil {
		t.Error("open trace missing in-flight shard span")
	}

	shard.End()
	root.End()
	td, ok = tr.DumpByID(root.TraceID())
	if !ok {
		t.Fatal("completed trace missing from ring")
	}
	if !td.Root.Ended {
		t.Error("completed trace root not ended")
	}
	if tr.Len() != 1 {
		t.Errorf("ring holds %d traces, want 1", tr.Len())
	}
}

func TestDumpByIDRacesGraft(t *testing.T) {
	// -race regression: concurrent DumpByID while spans are created,
	// grafted, and ended must be data-race free and always yield a
	// well-formed tree.
	remote := NewTracer(4)
	rtd := buildWireTrace(t, remote, [3]float64{0.1, 0.2, 0.3})
	wire, err := EncodeTraceWire(rtd, 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	tr := NewTracer(8)
	ctx, root := tr.StartTrace(context.Background(), "route")
	id := root.TraceID()

	var wg, dumper sync.WaitGroup
	stop := make(chan struct{})
	dumper.Add(1)
	go func() {
		defer dumper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if td, ok := tr.DumpByID(id); ok && td.Root == nil {
				t.Error("dump of open trace lost its root")
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w, err := DecodeTraceWire(wire, 0)
				if err != nil {
					t.Errorf("decode: %v", err)
					return
				}
				sctx, shard := StartSpan(ctx, "shard")
				shard.SetInt("try", int64(i))
				shard.GraftWire(w, "n")
				_, inner := StartSpan(sctx, "merge")
				inner.End()
				shard.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	dumper.Wait()
	root.End()
	if _, ok := tr.DumpByID(id); !ok {
		t.Fatal("trace lost after End")
	}
}
