// Package obs is the repo's stdlib-only observability layer: a unified
// metrics registry (atomic counters, sampled gauges, and fixed-bucket
// histograms, registered by name with labels and exposed in Prometheus
// text exposition format) plus per-request span tracing (context-
// propagated span trees recording wall time, virtual-clock time, bytes,
// and cache behavior, retained in a bounded ring buffer).
//
// The paper's argument is a cost argument — per-level layout choices
// shift time between seek, read, decompress, and filter — and this
// package is the substrate that attributes those costs to individual
// queries and builds so serving decisions (admission tuning, cache
// sizing, codec choice) can be data-driven.
//
// Metric names must match ^mloc_[a-z_]+$ and be unique per (name,
// labels) pair; both rules are enforced at registration (panic), since
// every metric in this repo is registered from static code.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families a Registry can hold.
type Kind int

// The metric kinds: monotonically increasing counters, free-moving
// gauges, and fixed-bucket histograms.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one name=value metric label.
type Label struct {
	// Key is the label name (must match ^[a-z_][a-z_]*$).
	Key string
	// Value is the label value (arbitrary UTF-8; escaped on exposition).
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative (counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: negative Counter.Add")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram: observations are counted into
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket. Bounds are set at registration and immutable.
type Histogram struct {
	bounds  []float64      // ascending upper bounds, excluding +Inf
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64
	// exemplars[i] is the most recent exemplar-annotated observation
	// that landed in bucket i — the breadcrumb from a slow bucket
	// straight to a representative trace in /debug/traces.
	exemplars []atomic.Pointer[exemplar]
}

// exemplar links one observed value to the trace that produced it.
type exemplar struct {
	value   float64
	traceID uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; NaN falls through to +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is non-zero,
// remembers it as the bucket's exemplar: the exposition annotates
// that bucket's line with the trace id, so a scrape showing a slow
// bucket points straight at a trace explaining it.
func (h *Histogram) ObserveExemplar(v float64, traceID uint64) {
	h.Observe(v)
	if traceID == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&exemplar{value: v, traceID: traceID})
}

// Count returns the total number of observations (the sum of all
// bucket counts, so it is always consistent with an exposed snapshot).
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ExpBuckets returns n bucket bounds growing geometrically from start
// by factor — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefSecondsBuckets is a general-purpose latency bucket layout from
// 100 µs to ~100 s, suitable for both wall and virtual seconds.
func DefSecondsBuckets() []float64 {
	return ExpBuckets(1e-4, math.Sqrt(10), 13)
}

// series is one registered (name, labels) time series.
type series struct {
	labels []Label
	sig    string // canonical {k="v",...} signature, "" when unlabeled

	// Exactly one of the following is set, matching the family kind.
	counter *Counter
	hist    *Histogram
	fn      func() float64
}

// family groups all series sharing one metric name.
type family struct {
	name, help string
	kind       Kind
	bounds     []float64 // histogram families only
	series     []*series
	bySig      map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; metric
// mutation (Inc/Set/Observe) never takes the registry lock.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validMetricName enforces the repo naming rule ^mloc_[a-z_]+$.
func validMetricName(name string) bool {
	if !strings.HasPrefix(name, "mloc_") || len(name) == len("mloc_") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && c != '_' {
			return false
		}
	}
	return true
}

// validLabelKey enforces ^[a-z_]+$ for label names.
func validLabelKey(key string) bool {
	if key == "" {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < 'a' || c > 'z') && c != '_' {
			return false
		}
	}
	return true
}

// labelSig builds the canonical exposition signature for a label set,
// sorted by key, e.g. `{endpoint="/query",code="200"}` sorted.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue applies the exposition-format escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// register validates and inserts one series, returning it. It panics on
// an invalid name or label key, a kind conflict with an existing
// family, or a duplicate (name, labels) registration — all of which are
// static programming errors in this repo.
func (r *Registry) register(name, help string, kind Kind, bounds []float64, labels []Label) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: metric name %q does not match ^mloc_[a-z_]+$", name))
	}
	for _, l := range labels {
		if !validLabelKey(l.Key) {
			panic(fmt.Sprintf("obs: label key %q on metric %q does not match ^[a-z_]+$", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, bounds: bounds, bySig: make(map[string]*series)}
		r.families[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, fam.kind))
	}
	sig := labelSig(labels)
	if _, dup := fam.bySig[sig]; dup {
		panic(fmt.Sprintf("obs: duplicate registration of metric %q%s", name, sig))
	}
	s := &series{labels: append([]Label(nil), labels...), sig: sig}
	fam.bySig[sig] = s
	fam.series = append(fam.series, s)
	return s
}

// Counter registers (and returns) a counter series under name.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, KindCounter, nil, labels)
	s.counter = &Counter{}
	return s.counter
}

// CounterFunc registers a counter series whose value is sampled from fn
// at exposition time — the bridge for components that already keep
// their own monotonic counters (pfs.Sim.Stats, cache shard counters).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, KindCounter, nil, labels)
	s.fn = fn
}

// GaugeFunc registers a gauge series sampled from fn at exposition time
// (queue depths, bytes in use).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.register(name, help, KindGauge, nil, labels)
	s.fn = fn
}

// Histogram registers (and returns) a histogram series with the given
// ascending bucket upper bounds (+Inf is implicit). All series of one
// histogram family share the bounds of the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	s := r.register(name, help, KindHistogram, bounds, labels)
	r.mu.RLock()
	shared := r.families[name].bounds
	r.mu.RUnlock()
	h := &Histogram{
		bounds:    shared,
		counts:    make([]atomic.Int64, len(shared)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(shared)+1),
	}
	s.hist = h
	return h
}

// famSnap is a point-in-time copy of one family's metadata and series
// list, taken under the registry lock so renderers never race
// concurrent registrations appending to family.series.
type famSnap struct {
	name, help string
	kind       Kind
	series     []*series
}

// snapshot copies every family (name order) and its series (signature
// order) under the read lock.
func (r *Registry) snapshot() []famSnap {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]famSnap, 0, len(r.families))
	for _, f := range sortedFamilies(r.families) {
		out = append(out, famSnap{name: f.name, help: f.help, kind: f.kind, series: sortedSeries(f)})
	}
	return out
}

// seriesValue samples a counter/gauge series.
func seriesValue(s *series) float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.fn != nil:
		return s.fn()
	}
	return 0
}

// sortedFamilies snapshots the family set in name order.
func sortedFamilies(m map[string]*family) []*family {
	out := make([]*family, 0, len(m))
	for _, f := range m {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// sortedSeries snapshots a family's series in signature order.
func sortedSeries(f *family) []*series {
	out := append([]*series(nil), f.series...)
	sort.Slice(out, func(i, j int) bool { return out[i].sig < out[j].sig })
	return out
}

// formatValue renders a sample the way Prometheus text format expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15: //mlocvet:ignore floatcmp -- exact integrality test selecting the render format
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// escapeHelp applies the exposition escapes for HELP text.
func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): sorted families, a HELP and TYPE line each,
// then the series sorted by label signature. Histogram bucket lines are
// cumulative and internally consistent with the _count line even under
// concurrent observation.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var sb strings.Builder
	for _, fam := range r.snapshot() {
		sb.Reset()
		fmt.Fprintf(&sb, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, s := range fam.series {
			if fam.kind == KindHistogram {
				writeHistogramSeries(&sb, fam.name, s)
				continue
			}
			fmt.Fprintf(&sb, "%s%s %s\n", fam.name, s.sig, formatValue(seriesValue(s)))
		}
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogramSeries renders one histogram series: cumulative
// _bucket lines (le label appended last), then _sum and _count. The
// bucket counts are snapshotted once so the cumulative sequence and
// _count agree even while observations race the scrape. Buckets with
// a recorded exemplar carry an OpenMetrics-style annotation after the
// count: `# {trace_id="7"} 0.042`.
func writeHistogramSeries(sb *strings.Builder, name string, s *series) {
	h := s.hist
	snap := make([]int64, len(h.counts))
	for i := range h.counts {
		snap[i] = h.counts[i].Load()
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += snap[i]
		fmt.Fprintf(sb, "%s_bucket%s %d%s\n", name, sigWithLE(s.sig, formatValue(bound)), cum, exemplarSuffix(h, i))
	}
	cum += snap[len(snap)-1]
	fmt.Fprintf(sb, "%s_bucket%s %d%s\n", name, sigWithLE(s.sig, "+Inf"), cum, exemplarSuffix(h, len(snap)-1))
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, s.sig, formatValue(h.Sum()))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, s.sig, cum)
}

// exemplarSuffix renders bucket i's exemplar annotation, or "".
func exemplarSuffix(h *Histogram, i int) string {
	ex := h.exemplars[i].Load()
	if ex == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%d\"} %s", ex.traceID, formatValue(ex.value))
}

// sigWithLE appends the le bucket label to a series signature.
func sigWithLE(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return sig[:len(sig)-1] + `,le="` + le + `"}`
}
