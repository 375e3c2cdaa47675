package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing model
//
// A Trace is one end-to-end operation (a query, a build); its Spans
// form a tree mirroring the engine's structure (plan → per-rank, each
// rank holding one fetch/decode/reassemble/filter event per stage, so a
// query's trace is O(ranks) spans whatever the store's bin count). Each
// span records wall time
// (time.Since its start) and, separately, virtual-clock seconds
// accumulated via AddVirt — the pfs.Clock hook: the engine feeds clock
// deltas in, so a span tree explains where the *simulated* cost model
// spent its time, which is what the paper's figures break down. Wall
// and virtual time are deliberately independent axes (DESIGN.md).
//
// Tracing is opt-in per request: StartSpan on a context with no active
// span returns a nil *Span, every method of which is a no-op — the
// uninstrumented hot path allocates nothing (gated by
// TestNoopSpanZeroAlloc). Completed traces are retained in a bounded
// ring buffer; span creation per trace is bounded by MaxSpans, beyond
// which new spans are dropped and counted.

// DefaultTraceCapacity is the ring-buffer size used when a Tracer is
// constructed with a non-positive capacity.
const DefaultTraceCapacity = 64

// DefaultMaxSpans bounds the spans recorded per trace; it is the only
// bound, so a test of the bound records DefaultMaxSpans spans.
const DefaultMaxSpans = 4096

// Tracer retains the last N completed traces in a ring buffer. All
// methods are safe for concurrent use.
type Tracer struct {
	mu   sync.Mutex
	ring []*Trace // circular; next is the slot to overwrite
	next int
	n    int
	seq  uint64
	// open holds traces whose root span has not ended yet, so
	// DumpByID can render a consistent partial tree mid-flight (a
	// routed query whose shard subtrees are not yet grafted). Entries
	// move to the ring when the root ends; instrumentation that never
	// ends its root leaks its entry, which is the same bug an
	// UNENDED span in a dump flags.
	open map[uint64]*Trace
}

// NewTracer returns a tracer retaining the last capacity completed
// traces (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]*Trace, capacity), open: make(map[uint64]*Trace)}
}

// Trace is one operation's span tree plus identity and bookkeeping.
type Trace struct {
	id      uint64
	name    string
	root    *Span
	tracer  *Tracer
	spans   atomic.Int64
	dropped atomic.Int64
}

// Span is one timed section of a trace. The nil *Span is the valid
// no-op span: every method checks the receiver, so untraced code paths
// carry nil spans at zero cost. A span's attrs and children may be
// appended from multiple goroutines (parallel ranks under one query).
type Span struct {
	name   string
	trace  *Trace
	parent *Span
	start  time.Time

	mu       sync.Mutex
	wall     time.Duration
	virt     float64
	ended    bool
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span (bytes, cache hits, rank
// ids, variable names).
type Attr struct {
	// Key names the attribute.
	Key string `json:"key"`
	// Value holds the attribute value (string, int64, float64, or bool).
	Value any `json:"value"`
}

type spanCtxKey struct{}

// SpanFromContext returns the active span, or nil (the no-op span)
// when the context is untraced.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// StartTrace begins a new trace rooted at a span called name and
// returns a context carrying it. Ending the root span completes the
// trace and retains it in the tracer's ring buffer.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	tr := &Trace{name: name, tracer: t}
	tr.id = atomic.AddUint64(&t.seq, 1)
	root := &Span{name: name, trace: tr, start: time.Now()}
	tr.root = root
	tr.spans.Store(1)
	t.mu.Lock()
	t.open[tr.id] = tr
	t.mu.Unlock()
	return ContextWithSpan(ctx, root), root
}

// StartSpan begins a child of the context's active span. When the
// context carries no span (tracing off) it returns the context
// unchanged and a nil span; all nil-span methods are no-ops, so callers
// never branch. The returned context carries the new span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.newChild(name)
	if sp == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, sp), sp
}

// newChild allocates and links a child span, honoring the per-trace
// span bound.
func (s *Span) newChild(name string) *Span {
	tr := s.trace
	if tr.spans.Add(1) > DefaultMaxSpans {
		tr.spans.Add(-1)
		tr.dropped.Add(1)
		return nil
	}
	child := &Span{name: name, trace: tr, parent: s, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// Event records an already-completed child span with explicit wall and
// virtual durations — for aggregate sections whose pieces interleave
// (a rank's decode/filter work across its bins) and for after-the-fact
// accounting (per-worker build compute). The returned span accepts
// attrs; Event on a nil span returns nil.
func (s *Span) Event(name string, wall time.Duration, virt float64) *Span {
	if s == nil {
		return nil
	}
	child := s.newChild(name)
	if child == nil {
		return nil
	}
	child.mu.Lock()
	child.wall = wall
	child.virt = virt
	child.ended = true
	child.mu.Unlock()
	return child
}

// SetString attaches a string attribute. The nil check precedes the
// interface boxing in every typed setter so the no-op path stays
// allocation-free.
func (s *Span) SetString(key, v string) {
	if s == nil {
		return
	}
	s.setAttr(key, v)
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.setAttr(key, v)
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.setAttr(key, v)
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.setAttr(key, v)
}

func (s *Span) setAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// AddVirt accumulates virtual-clock seconds onto the span — the
// pfs.Clock hook: callers feed deltas of their rank's clock (or
// CPU charges) so the span records simulated cost alongside
// wall time.
func (s *Span) AddVirt(sec float64) {
	if s == nil || sec == 0 { //mlocvet:ignore floatcmp -- exact zero is the no-op sentinel, never a computed value
		return
	}
	s.mu.Lock()
	s.virt += sec
	s.mu.Unlock()
}

// TraceID returns the owning trace's id (0 for the nil span).
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.trace.id
}

// End completes the span, fixing its wall duration. Ending the root
// span retains the whole trace in the tracer's ring buffer. End is
// idempotent; ending a nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.wall = time.Since(s.start)
	s.mu.Unlock()
	if s.parent == nil {
		s.trace.tracer.retain(s.trace)
	}
}

// retain pushes a completed trace into the ring buffer, evicting the
// oldest when full.
func (t *Tracer) retain(tr *Trace) {
	t.mu.Lock()
	delete(t.open, tr.id)
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// SpanDump is the serializable form of one span; Children preserves
// start order.
type SpanDump struct {
	// Name is the span name.
	Name string `json:"name"`
	// Start is the span's wall-clock start time.
	Start time.Time `json:"start"`
	// WallMS is the elapsed wall time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// VirtS is the accumulated virtual-clock seconds (0 when the span
	// tracks only wall time).
	VirtS float64 `json:"virt_s,omitempty"`
	// Ended reports whether the span was properly ended; an un-ended
	// span in a completed trace indicates an instrumentation bug.
	Ended bool `json:"ended"`
	// Attrs carries the span's annotations in insertion order.
	Attrs []Attr `json:"attrs,omitempty"`
	// Children are the child spans in creation order.
	Children []*SpanDump `json:"children,omitempty"`
}

// TraceDump is the serializable form of one completed trace.
type TraceDump struct {
	// ID is the trace's tracer-unique id (monotonic).
	ID uint64 `json:"id"`
	// Name is the root operation name.
	Name string `json:"name"`
	// Spans is the number of spans recorded.
	Spans int64 `json:"spans"`
	// Dropped counts spans discarded by the per-trace bound.
	Dropped int64 `json:"dropped,omitempty"`
	// Root is the span tree.
	Root *SpanDump `json:"root"`
}

// dump snapshots a span subtree.
func (s *Span) dump() *SpanDump {
	s.mu.Lock()
	d := &SpanDump{
		Name:   s.name,
		Start:  s.start,
		WallMS: float64(s.wall) / float64(time.Millisecond),
		VirtS:  s.virt,
		Ended:  s.ended,
	}
	if len(s.attrs) > 0 {
		d.Attrs = append([]Attr(nil), s.attrs...)
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.dump())
	}
	return d
}

// dumpTrace snapshots one trace.
func dumpTrace(tr *Trace) TraceDump {
	return TraceDump{
		ID:      tr.id,
		Name:    tr.name,
		Spans:   tr.spans.Load(),
		Dropped: tr.dropped.Load(),
		Root:    tr.root.dump(),
	}
}

// Dump returns the retained traces, newest first.
func (t *Tracer) Dump() []TraceDump {
	t.mu.Lock()
	traces := make([]*Trace, 0, t.n)
	for i := 0; i < t.n; i++ {
		// next-1 is the newest slot; walk backwards.
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		traces = append(traces, t.ring[idx])
	}
	t.mu.Unlock()
	out := make([]TraceDump, len(traces))
	for i, tr := range traces {
		out[i] = dumpTrace(tr)
	}
	return out
}

// DumpByID returns one trace by id. Completed traces come from the
// ring buffer; a trace whose root span is still open is served from
// the open set as a consistent partial tree (every span snapshots
// under its own lock), so introspecting a routed query before its
// shard subtrees are grafted is race-free rather than a miss.
func (t *Tracer) DumpByID(id uint64) (TraceDump, bool) {
	t.mu.Lock()
	var found *Trace
	for i := 0; i < t.n; i++ {
		tr := t.ring[i]
		if tr != nil && tr.id == id {
			found = tr
			break
		}
	}
	if found == nil {
		found = t.open[id]
	}
	t.mu.Unlock()
	if found == nil {
		return TraceDump{}, false
	}
	return dumpTrace(found), true
}

// Len returns the number of retained traces.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Render writes a human-readable tree of the trace:
//
//	trace 3 "query" (12 spans)
//	  query                wall 1.84ms  virt 0.0154s  var=phi
//	    plan               wall 0.02ms
//	    rank               wall 1.71ms  virt 0.0154s  rank=0
//	      ...
func (d TraceDump) Render(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace %d %q (%d spans", d.ID, d.Name, d.Spans)
	if d.Dropped > 0 {
		fmt.Fprintf(&sb, ", %d dropped", d.Dropped)
	}
	sb.WriteString(")\n")
	if d.Root != nil {
		renderSpan(&sb, d.Root, 1)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// renderSpan writes one span line plus its children, indented by depth.
func renderSpan(sb *strings.Builder, s *SpanDump, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(sb, "%s%-*s wall %.3fms", indent, 24-2*depth, s.Name, s.WallMS)
	if s.VirtS != 0 { //mlocvet:ignore floatcmp -- exact zero is the unset sentinel, never a computed value
		fmt.Fprintf(sb, "  virt %.6fs", s.VirtS)
	}
	if !s.Ended {
		sb.WriteString("  UNENDED")
	}
	for _, a := range renderAttrs(s.Attrs) {
		sb.WriteString("  ")
		sb.WriteString(a)
	}
	sb.WriteByte('\n')
	for _, c := range s.Children {
		renderSpan(sb, c, depth+1)
	}
}

// renderAttrs formats attrs as key=value strings in a stable order
// (insertion order, which instrumentation keeps deterministic; JSON
// round-trips preserve it).
func renderAttrs(attrs []Attr) []string {
	out := make([]string, 0, len(attrs))
	for _, a := range attrs {
		switch v := a.Value.(type) {
		case float64:
			// JSON decodes every number as float64; print integers
			// without the decimal point.
			if v == float64(int64(v)) { //mlocvet:ignore floatcmp -- exact integrality test selecting the render format
				out = append(out, fmt.Sprintf("%s=%d", a.Key, int64(v)))
			} else {
				out = append(out, fmt.Sprintf("%s=%g", a.Key, v))
			}
		default:
			out = append(out, fmt.Sprintf("%s=%v", a.Key, a.Value))
		}
	}
	return out
}

// SumVirt returns the sum of virtual seconds over the spans selected
// by keep (nil keeps all) across the whole subtree — the helper behind
// "span virtual times must sum to the reported query latency" checks.
func (d *SpanDump) SumVirt(keep func(*SpanDump) bool) float64 {
	if d == nil {
		return 0
	}
	var sum float64
	if keep == nil || keep(d) {
		sum += d.VirtS
	}
	for _, c := range d.Children {
		sum += c.SumVirt(keep)
	}
	return sum
}

// Find returns the first span in the subtree (pre-order) with the
// given name, or nil.
func (d *SpanDump) Find(name string) *SpanDump {
	if d == nil {
		return nil
	}
	if d.Name == name {
		return d
	}
	for _, c := range d.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}
