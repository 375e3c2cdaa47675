package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Trace wire form
//
// A data node answering a routed query returns its completed span
// subtree inside the response envelope so the router can graft it
// under the fan-out span and render one cross-node tree. The wire form
// is deliberately minimal and versioned: span name, wall-clock start
// (nanoseconds since the Unix epoch, advisory — see the clock-skew
// note below), wall duration, virtual-clock seconds, attrs, children.
// Payloads are size-bounded on both ends: the encoder refuses to emit
// more than maxBytes, and the decoder rejects oversized input before
// parsing, mirroring the DecodeBytesMax discipline the codecs use.
//
// Clock skew: the two processes' wall clocks are unrelated, so the
// router rebases every grafted start time by the offset between its
// own shard-span start and the remote root's start. Wall times across
// a graft are therefore advisory alignment hints; the virtual-clock
// seconds are the authoritative cost axis (they are simulated, so
// they transfer exactly).

// TraceWireVersion is the current wire-format version; decoders
// reject anything else.
const TraceWireVersion = 1

// DefaultMaxWireBytes bounds an encoded span subtree (1 MiB) — far
// above any real query tree (MaxSpans caps span count first) but low
// enough that a misbehaving peer cannot balloon a response envelope.
const DefaultMaxWireBytes = 1 << 20

// maxWireDepth bounds span-tree nesting on decode so a hostile
// payload cannot drive the recursive validator or graft into the
// stack limit.
const maxWireDepth = 64

// TraceHeader is the trace-context HTTP request header: a router
// propagating a trace sets it to its local trace id (decimal), and a
// data node seeing it returns the query's span subtree in the
// response envelope.
const TraceHeader = "X-Mloc-Trace"

// SpanWire is the serializable wire form of one span.
type SpanWire struct {
	// Name is the span name.
	Name string `json:"n"`
	// StartUnixNS is the span's wall start, nanoseconds since the
	// Unix epoch on the *originating* node's clock (0 when unknown).
	StartUnixNS int64 `json:"t,omitempty"`
	// WallMS is the elapsed wall time in milliseconds.
	WallMS float64 `json:"w,omitempty"`
	// VirtS is the accumulated virtual-clock seconds.
	VirtS float64 `json:"v,omitempty"`
	// Attrs carries the span's annotations in insertion order.
	Attrs []Attr `json:"a,omitempty"`
	// Children are the child spans in creation order.
	Children []*SpanWire `json:"c,omitempty"`
}

// TraceWire is the versioned envelope for one span subtree.
type TraceWire struct {
	// V is the wire-format version (TraceWireVersion).
	V int `json:"v"`
	// Spans is the number of spans the originating trace recorded.
	Spans int64 `json:"spans,omitempty"`
	// Dropped counts spans the originating trace discarded at its
	// per-trace bound.
	Dropped int64 `json:"dropped,omitempty"`
	// Root is the span subtree.
	Root *SpanWire `json:"root"`
}

// WireFromDump converts a span-dump subtree to its wire form.
func WireFromDump(d *SpanDump) *SpanWire {
	if d == nil {
		return nil
	}
	w := &SpanWire{
		Name:   d.Name,
		WallMS: d.WallMS,
		VirtS:  d.VirtS,
	}
	if !d.Start.IsZero() {
		w.StartUnixNS = d.Start.UnixNano()
	}
	if len(d.Attrs) > 0 {
		w.Attrs = append([]Attr(nil), d.Attrs...)
	}
	for _, c := range d.Children {
		w.Children = append(w.Children, WireFromDump(c))
	}
	return w
}

// EncodeTraceWire serializes a completed trace dump as a versioned,
// size-bounded wire payload. maxBytes <= 0 means DefaultMaxWireBytes;
// an encoding larger than the bound is an error, not a truncation
// (a truncated tree would silently break the span-sum invariant).
func EncodeTraceWire(td TraceDump, maxBytes int) ([]byte, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxWireBytes
	}
	w := TraceWire{V: TraceWireVersion, Spans: td.Spans, Dropped: td.Dropped, Root: WireFromDump(td.Root)}
	if w.Root == nil {
		return nil, fmt.Errorf("obs: trace wire encode: empty span tree")
	}
	data, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("obs: trace wire encode: %w", err)
	}
	if len(data) > maxBytes {
		return nil, fmt.Errorf("obs: trace wire encode: %d bytes exceeds bound %d", len(data), maxBytes)
	}
	return data, nil
}

// DecodeTraceWire parses and validates a wire payload. maxBytes <= 0
// means DefaultMaxWireBytes. Oversized, truncated, versionless, or
// unreasonably deep payloads are rejected before anything is grafted.
func DecodeTraceWire(data []byte, maxBytes int) (*TraceWire, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxWireBytes
	}
	if len(data) > maxBytes {
		return nil, fmt.Errorf("obs: trace wire decode: %d bytes exceeds bound %d", len(data), maxBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w TraceWire
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("obs: trace wire decode: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("obs: trace wire decode: trailing data after payload")
	}
	if w.V != TraceWireVersion {
		return nil, fmt.Errorf("obs: trace wire decode: unsupported version %d", w.V)
	}
	if w.Root == nil {
		return nil, fmt.Errorf("obs: trace wire decode: missing span tree")
	}
	if err := validateSpanWire(w.Root, 0); err != nil {
		return nil, err
	}
	return &w, nil
}

// validateSpanWire walks the tree rejecting anonymous spans and
// nesting past maxWireDepth.
func validateSpanWire(sw *SpanWire, depth int) error {
	if depth >= maxWireDepth {
		return fmt.Errorf("obs: trace wire decode: span tree deeper than %d", maxWireDepth)
	}
	if sw.Name == "" {
		return fmt.Errorf("obs: trace wire decode: span with empty name at depth %d", depth)
	}
	for _, c := range sw.Children {
		if c == nil {
			return fmt.Errorf("obs: trace wire decode: null child span at depth %d", depth)
		}
		if err := validateSpanWire(c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// wireSpanCount returns the number of spans in the subtree.
func wireSpanCount(sw *SpanWire) int64 {
	if sw == nil {
		return 0
	}
	var n int64 = 1
	for _, c := range sw.Children {
		n += wireSpanCount(c)
	}
	return n
}

// SumVirtWire sums virtual-clock seconds over the wire subtree.
func SumVirtWire(sw *SpanWire) float64 {
	if sw == nil {
		return 0
	}
	sum := sw.VirtS
	for _, c := range sw.Children {
		sum += SumVirtWire(c)
	}
	return sum
}

// GraftWire attaches a remote span subtree under s as already-ended
// child spans, tagging the grafted root with a node=<node> attr. The
// graft honors the local trace's MaxSpans bound — spans past the
// bound (and their whole subtrees) are dropped and counted — and
// folds the remote side's own drop count into the trace total. Start
// times are rebased onto the local clock: the grafted root starts at
// s.start and every descendant keeps its offset from the remote root,
// so cross-node wall alignment survives clock skew as an advisory
// hint while virtual seconds transfer exactly. It returns the virtual
// seconds grafted and the number of spans dropped at the local bound.
func (s *Span) GraftWire(w *TraceWire, node string) (virt float64, dropped int64) {
	if s == nil || w == nil || w.Root == nil {
		return 0, 0
	}
	s.trace.dropped.Add(w.Dropped)
	root := s.graftChild(w.Root, s.start)
	if root == nil {
		// graftChild counted the root; charge its skipped subtree too.
		n := wireSpanCount(w.Root)
		s.trace.dropped.Add(n - 1)
		return 0, n
	}
	root.mu.Lock()
	root.attrs = append(root.attrs, Attr{Key: "node", Value: node})
	root.mu.Unlock()
	virt = w.Root.VirtS
	for _, c := range w.Root.Children {
		cv, cd := root.graftSubtree(c, w.Root.StartUnixNS, s.start)
		virt += cv
		dropped += cd
	}
	return virt, dropped
}

// graftSubtree recursively grafts one wire span and its children,
// rebasing starts by the remote span's offset from the remote root
// (rootNS); spans with no remote start inherit the local base.
func (s *Span) graftSubtree(sw *SpanWire, rootNS int64, base time.Time) (virt float64, dropped int64) {
	start := base
	if rootNS != 0 && sw.StartUnixNS != 0 {
		start = base.Add(time.Duration(sw.StartUnixNS - rootNS))
	}
	child := s.graftChild(sw, start)
	if child == nil {
		n := wireSpanCount(sw)
		s.trace.dropped.Add(n - 1)
		return 0, n
	}
	virt = sw.VirtS
	for _, c := range sw.Children {
		cv, cd := child.graftSubtree(c, rootNS, base)
		virt += cv
		dropped += cd
	}
	return virt, dropped
}

// graftChild links one already-ended span from the wire under s,
// honoring the per-trace span bound the same way newChild does.
func (s *Span) graftChild(sw *SpanWire, start time.Time) *Span {
	tr := s.trace
	if tr.spans.Add(1) > DefaultMaxSpans {
		tr.spans.Add(-1)
		tr.dropped.Add(1)
		return nil
	}
	child := &Span{
		name:   sw.Name,
		trace:  tr,
		parent: s,
		start:  start,
		wall:   time.Duration(sw.WallMS * float64(time.Millisecond)),
		virt:   sw.VirtS,
		ended:  true,
	}
	if len(sw.Attrs) > 0 {
		child.attrs = append([]Attr(nil), sw.Attrs...)
	}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}
