package obs

import (
	"context"
	"testing"
)

// FuzzDecodeTraceWire: a trace payload comes from a peer node, so
// DecodeTraceWire and GraftWire must be panic-free on any bytes. A
// payload over the bound, deeper than maxWireDepth or without a root
// is an error; one that decodes grafts at most DefaultMaxSpans spans
// and reports the rest as dropped.
func FuzzDecodeTraceWire(f *testing.F) {
	remote := NewTracer(4)
	ctx, root := remote.StartTrace(context.Background(), "query")
	_, child := StartSpan(ctx, "rank")
	child.AddVirt(0.25)
	child.End()
	root.End()
	td, _ := remote.DumpByID(root.TraceID())
	if seed, err := EncodeTraceWire(td, 0); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"v":1,"root":{"name":"a","children":[null]}}`))
	f.Add([]byte(`{"v":1,"root":{"name":""}}`))
	f.Add([]byte(`{"v":2,"root":{"name":"a"}}`))
	f.Add([]byte(`{"v":1}`))
	f.Add([]byte(`{"v":1,"root":{"name":"a"}} {}`))
	f.Add([]byte(`{"v":1,"spans":-5,"root":{"name":"a","virt_s":-1,"start_unix_ns":-9}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		const bound = 4 << 10
		w, err := DecodeTraceWire(data, bound)
		if err != nil {
			return
		}
		if len(data) > bound || w.Root == nil {
			t.Fatalf("decoded a payload of %d bytes (bound %d) with root %v", len(data), bound, w.Root)
		}
		_, sp := NewTracer(1).StartTrace(context.Background(), "route")
		_, dropped := sp.GraftWire(w, "node")
		sp.End()
		if dropped < 0 || dropped > wireSpanCount(w.Root) {
			t.Fatalf("dropped %d of %d spans", dropped, wireSpanCount(w.Root))
		}
	})
}
