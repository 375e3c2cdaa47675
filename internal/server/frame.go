package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"mloc/internal/obs"
	"mloc/internal/query"
)

// Limits is a role's admission control: at most MaxConcurrent queries
// execute at once, at most MaxQueue wait for a slot, none longer than
// QueueWait.
type Limits struct {
	MaxConcurrent int
	MaxQueue      int
	QueueWait     time.Duration
}

// Role is what differs between the two mlocd roles. The data node
// (Server) and the cluster router are the two values of it; everything
// else about serving a query — parsing, draining, admission, tracing,
// outcome counting, the query log, the response encoding, the
// introspection endpoints — is the Frame's and is written once.
type Role struct {
	// Name prefixes log lines and names the role in its draining
	// refusal ("server", "router").
	Name string
	// Prefix starts every metric family the frame registers
	// ("mloc_server", "mloc_cluster").
	Prefix string
	// RootSpan names the root span of a query's trace.
	RootSpan string
	// Limits, when non-nil, puts queries behind admission control; a
	// role without it admits everything and registers no admission
	// families.
	Limits *Limits

	// The knobs both roles' Configs carry; zero values take the
	// defaults documented there.
	MaxMatches    int
	Registry      *obs.Registry
	Tracer        *obs.Tracer
	SLOObjectives []time.Duration
	Logf          func(format string, args ...any)

	// Vars lists the served variables for GET /vars, sorted by name.
	Vars func() []VarWire
	// Prepare validates a parsed request against the role's variables;
	// an error is answered with status and counted as failed.
	Prepare func(*QueryWire) (p Prepared, status int, err error)
	// Stats adds the role's own keys to the flat GET /stats object.
	Stats func(stats map[string]int64)
	// Unhealthy, when non-nil, returns why GET /healthz should answer
	// 503 although the role is not draining ("" when healthy).
	Unhealthy func() string
	// Routes are the role's extra GET endpoints.
	Routes []Route
}

// Route is one extra GET endpoint of a role; Name is its endpoint
// label in the per-endpoint metrics.
type Route struct {
	Path, Name string
	Handler    http.HandlerFunc
}

// Prepared is a validated query ready to run.
type Prepared struct {
	// Store and Shape describe the variable for the query log: its
	// layout mode and its grid (the selectivity denominator).
	Store string
	Shape []int
	// Run answers the query. It runs under the query's trace, after
	// admission, and may set the role's own attributes on root.
	Run func(ctx context.Context, root *obs.Span) Answer
}

// Answer is what a role's Run returns: a result, or the error and
// status to answer with. Shards and Degraded reach the query log
// either way, so a fan-out whose every shard failed is still recorded.
type Answer struct {
	Result   *query.Result
	Shards   int
	Degraded bool
	// Extra, when not empty, is a JSON object whose members follow the
	// result's own in the response.
	Extra  []byte
	Err    error
	Status int
}

// endpointMetrics is the per-route request counter, error counter, and
// service-time histogram.
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	service  *obs.Histogram
}

// Frame is the service both mlocd roles are: POST /query and its
// bookkeeping, GET /stats, /vars, /healthz, /metrics, /debug/traces and
// /debug/querylog, the draining flag, and the role's extra routes.
// Create with NewFrame, mount via Handler.
type Frame struct {
	role Role
	adm  *admission // nil without Limits
	qlog *obs.QueryLog
	slo  *obs.SLO

	draining atomic.Bool

	queries   *obs.Counter
	ok        *obs.Counter
	degraded  *obs.Counter
	failed    *obs.Counter
	rejected  *obs.Counter
	canceled  *obs.Counter
	shed      map[string]*obs.Counter
	queueWait *obs.Histogram // nil without Limits
	latency   *obs.Histogram
	endpoints map[string]*endpointMetrics
}

// shed reasons, the label values of <prefix>_shed_total.
const (
	shedDraining    = "draining"
	shedQueueFull   = "queue_full"
	shedWaitExpired = "wait_expired"
	shedClientGone  = "client_gone"
)

// NewFrame applies the shared defaults to role and registers the
// frame's metric families under role.Prefix.
func NewFrame(role Role) (*Frame, error) {
	if role.MaxMatches <= 0 {
		role.MaxMatches = 65536
	}
	if role.Registry == nil {
		role.Registry = obs.NewRegistry()
	}
	if role.Tracer == nil {
		role.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	if role.SLOObjectives == nil {
		objs, err := obs.ParseSLOObjectives(obs.DefaultSLOObjectives)
		if err != nil {
			return nil, fmt.Errorf("server: default slo objectives: %w", err)
		}
		role.SLOObjectives = objs
	}
	if role.Logf == nil {
		role.Logf = log.Printf
	}
	f := &Frame{role: role, qlog: obs.NewQueryLog(obs.DefaultQueryLogCapacity)}
	f.instrument()
	return f, nil
}

// instrument registers the frame's metric families on the registry.
func (f *Frame) instrument() {
	reg, prefix := f.role.Registry, f.role.Prefix
	f.queries = reg.Counter(prefix+"_queries_total", "Query requests received (any outcome).")
	outcome := func(class string) *obs.Counter {
		return reg.Counter(prefix+"_query_outcomes_total", "Query outcomes by class.", obs.L("outcome", class))
	}
	f.ok, f.degraded, f.failed = outcome("ok"), outcome("degraded"), outcome("failed")
	f.rejected, f.canceled = outcome("rejected"), outcome("canceled")
	f.shed = make(map[string]*obs.Counter)
	for _, reason := range []string{shedDraining, shedQueueFull, shedWaitExpired, shedClientGone} {
		f.shed[reason] = reg.Counter(prefix+"_shed_total",
			"Requests shed by draining or admission control, by reason.", obs.L("reason", reason))
	}
	f.latency = reg.Histogram(prefix+"_query_latency_seconds",
		"End-to-end query wall latency; slow buckets carry exemplar trace ids.",
		obs.DefSecondsBuckets())
	f.slo = obs.NewSLO(reg, f.role.SLOObjectives)
	reg.GaugeFunc(prefix+"_draining",
		"1 while new queries are refused for shutdown.", func() float64 {
			if f.draining.Load() {
				return 1
			}
			return 0
		})
	if l := f.role.Limits; l != nil {
		f.adm = newAdmission(l.MaxConcurrent, l.MaxQueue, l.QueueWait)
		f.queueWait = reg.Histogram(prefix+"_queue_wait_seconds",
			"Admission-queue wait before a slot was granted.", obs.DefSecondsBuckets())
		reg.GaugeFunc(prefix+"_in_flight",
			"Queries currently executing.", func() float64 { return float64(f.adm.inFlight()) })
		reg.GaugeFunc(prefix+"_queue_depth",
			"Callers waiting for an execution slot.", func() float64 { return float64(f.adm.queued()) })
	}
	names := []string{"query", "stats", "vars", "healthz", "metrics", "traces", "querylog"}
	for _, rt := range f.role.Routes {
		names = append(names, rt.Name)
	}
	f.endpoints = make(map[string]*endpointMetrics)
	for _, ep := range names {
		f.endpoints[ep] = &endpointMetrics{
			requests: reg.Counter(prefix+"_requests_total",
				"HTTP requests by endpoint.", obs.L("endpoint", ep)),
			errors: reg.Counter(prefix+"_request_errors_total",
				"HTTP responses with status >= 400, by endpoint.", obs.L("endpoint", ep)),
			service: reg.Histogram(prefix+"_request_seconds",
				"Wall-clock request service time by endpoint.",
				obs.DefSecondsBuckets(), obs.L("endpoint", ep)),
		}
	}
}

// Registry returns the metrics registry backing /metrics, so the role
// and the embedding process (mlocd) can register more families on it.
func (f *Frame) Registry() *obs.Registry { return f.role.Registry }

// Logf writes one log line through the configured sink.
func (f *Frame) Logf(format string, args ...any) { f.role.Logf(format, args...) }

// SetDraining flips the draining flag: while set, new queries get 503
// with Retry-After and in-flight queries run to completion. Graceful
// shutdown sets it before http.Server.Shutdown.
func (f *Frame) SetDraining(on bool) { f.draining.Store(on) }

// Handler returns the service's HTTP routes.
func (f *Frame) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", f.endpoint("query", http.MethodPost, f.handleQuery))
	mux.HandleFunc("/stats", f.endpoint("stats", http.MethodGet, f.handleStats))
	mux.HandleFunc("/vars", f.endpoint("vars", http.MethodGet, f.handleVars))
	mux.HandleFunc("/healthz", f.endpoint("healthz", "", f.handleHealthz))
	mux.HandleFunc("/metrics", f.endpoint("metrics", http.MethodGet, f.handleMetrics))
	mux.HandleFunc("/debug/traces", f.endpoint("traces", http.MethodGet, f.handleTraces))
	mux.HandleFunc("/debug/querylog", f.endpoint("querylog", http.MethodGet, f.handleQlog))
	for _, rt := range f.role.Routes {
		mux.HandleFunc(rt.Path, f.endpoint(rt.Name, http.MethodGet, rt.Handler))
	}
	return mux
}

// statusWriter records the response status for the endpoint error
// counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// endpoint wraps a handler with the method check (any method passes
// when method is empty) and the per-endpoint request counter, error
// counter, and service-time histogram.
func (f *Frame) endpoint(name, method string, h http.HandlerFunc) http.HandlerFunc {
	em := f.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		if method != "" && r.Method != method {
			sw.Header().Set("Allow", method)
			WriteError(sw, http.StatusMethodNotAllowed, method+" required")
		} else {
			h(sw, r)
		}
		em.service.Observe(time.Since(start).Seconds())
		if sw.status >= 400 {
			em.errors.Inc()
		}
	}
}

// handleQuery is POST /query on either role. The outcome classes mean
// the same on both: rejected is shed by draining or admission, failed
// is any other 4xx/5xx answer, canceled is a client that went away.
func (f *Frame) handleQuery(w http.ResponseWriter, r *http.Request) {
	f.queries.Inc()
	if f.draining.Load() {
		f.rejected.Inc()
		f.shed[shedDraining].Inc()
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, f.role.Name+" is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	wire, err := ParseRequest(r.Body)
	if err != nil {
		f.failed.Inc()
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, status, err := f.role.Prepare(wire)
	if err != nil {
		f.failed.Inc()
		WriteError(w, status, err.Error())
		return
	}

	start := time.Now()
	remoteTrace := r.Header.Get(obs.TraceHeader) != ""
	ctx, root := f.role.Tracer.StartTrace(r.Context(), f.role.RootSpan)
	defer root.End()
	root.SetString("var", wire.Var)

	var queued time.Duration
	if f.adm != nil {
		if queued, err = f.adm.acquire(ctx); err != nil {
			f.admissionFailure(w, err)
			return
		}
		defer f.adm.release()
		f.queueWait.Observe(queued.Seconds())
		root.SetFloat("queued_ms", float64(queued.Microseconds())/1000)
	}

	ans := p.Run(ctx, root)
	if ans.Err != nil {
		class, outcome, status, msg := f.failed, "error", ans.Status, ans.Err.Error()
		if ctx.Err() != nil {
			// The client is gone; nothing useful can be written. The
			// point of this path is that the engine already stopped at a
			// bin boundary and the deferred release frees the slot now
			// rather than after the full scan.
			class, outcome, status, msg = f.canceled, "canceled", http.StatusServiceUnavailable, "query canceled"
		}
		class.Inc()
		f.recordQuery(wire.Var, &p, &ans, queued, time.Since(start), root.TraceID(), outcome)
		WriteError(w, status, msg)
		return
	}
	if ans.Degraded {
		f.degraded.Inc()
	} else {
		f.ok.Inc()
	}
	root.SetInt("matches", int64(ans.Result.MatchCount()))
	out := BuildResult(wire.Var, ans.Result, f.role.MaxMatches, queued)
	out.TraceID = root.TraceID()
	wall := time.Since(start)
	// The span tree must be complete before it can travel in the
	// envelope or be logged, so the root ends here; the deferred End is
	// a no-op.
	root.End()
	if remoteTrace {
		if td, ok := f.role.Tracer.DumpByID(out.TraceID); ok {
			data, err := obs.EncodeTraceWire(td, obs.DefaultMaxWireBytes)
			if err != nil {
				// An over-bound tree is dropped from the envelope, never
				// truncated; the trace is still served at /debug/traces.
				f.Logf("%s: trace %d not attached to response: %v", f.role.Name, out.TraceID, err)
			} else {
				out.Trace = data
			}
		}
	}
	f.recordQuery(wire.Var, &p, &ans, queued, wall, out.TraceID, "ok")
	if err := WriteResult(w, &out, wire.IndexOnly, ans.Extra); err != nil {
		f.Logf("%s: trace %d: %v", f.role.Name, out.TraceID, err)
	}
}

// recordQuery feeds one finished query into the always-on query log,
// the SLO counters, and the latency histogram (whose bucket keeps the
// trace id as its exemplar). ans.Result is nil for canceled and failed
// queries.
func (f *Frame) recordQuery(name string, p *Prepared, ans *Answer, queued, wall time.Duration, traceID uint64, outcome string) {
	rec := obs.QueryRecord{
		Store:       p.Store,
		Var:         name,
		Selectivity: "unknown",
		Outcome:     outcome,
		Shards:      ans.Shards,
		Degraded:    ans.Degraded,
		QueueWaitMS: float64(queued.Microseconds()) / 1000,
		WallMS:      float64(wall.Microseconds()) / 1000,
		TraceID:     traceID,
	}
	if res := ans.Result; res != nil {
		var domain int64 = 1
		for _, d := range p.Shape {
			domain *= int64(d)
		}
		rec.Matches = res.MatchCount()
		rec.Selectivity = obs.SelectivityClass(rec.Matches, domain)
		rec.BinsPruned = res.BinsPruned
		rec.BinsCovered = res.BinsCovered
		rec.CacheHits = res.CacheHits
		rec.CacheMisses = res.BlocksRead
		rec.BytesDecoded = res.BytesRead
		rec.VirtS = res.Time.Total()
	}
	f.qlog.Append(rec)
	f.slo.Observe(wall)
	f.latency.ObserveExemplar(wall.Seconds(), traceID)
}

// admissionFailure maps an acquire error to its HTTP response.
func (f *Frame) admissionFailure(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		f.rejected.Inc()
		f.shed[shedQueueFull].Inc()
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "query queue full")
	case errors.Is(err, errQueueTimeout):
		f.rejected.Inc()
		f.shed[shedWaitExpired].Inc()
		w.Header().Set("Retry-After", "2")
		WriteError(w, http.StatusServiceUnavailable, "no query slot within wait budget")
	default: // the caller's context ended while queued
		f.canceled.Inc()
		f.shed[shedClientGone].Inc()
		WriteError(w, http.StatusServiceUnavailable, "canceled while queued")
	}
}

// Stats returns the flat counter view GET /stats serves: the frame's
// keys plus the role's. The values are read back from the metrics
// registry's own counters, so /stats and /metrics can never disagree.
func (f *Frame) Stats() map[string]int64 {
	stats := map[string]int64{
		"queries_total":    f.queries.Value(),
		"queries_ok":       f.ok.Value(),
		"queries_degraded": f.degraded.Value(),
		"queries_failed":   f.failed.Value(),
		"queries_rejected": f.rejected.Value(),
		"queries_canceled": f.canceled.Value(),
		"draining":         0,
	}
	if f.draining.Load() {
		stats["draining"] = 1
	}
	if f.adm != nil {
		stats["queue_wait_us"] = int64(f.queueWait.Sum() * 1e6)
		stats["in_flight"] = int64(f.adm.inFlight())
		stats["queued"] = f.adm.queued()
	}
	f.role.Stats(stats)
	return stats
}

func (f *Frame) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, f.Stats())
}

func (f *Frame) handleVars(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, f.role.Vars())
}

func (f *Frame) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reason := ""
	if f.draining.Load() {
		reason = "draining"
	} else if f.role.Unhealthy != nil {
		reason = f.role.Unhealthy()
	}
	if reason != "" {
		WriteError(w, http.StatusServiceUnavailable, reason)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the registry in Prometheus text exposition.
func (f *Frame) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := f.role.Registry.WritePrometheus(w); err != nil {
		// The response is already committed (mid-write disconnect).
		_ = err //mlocvet:ignore uncheckederr -- response already committed; a mid-write disconnect has no recovery
	}
}

// handleTraces serves the tracer's retained traces: the full ring
// (newest first) by default, or one span tree with ?id=<trace_id>.
func (f *Frame) handleTraces(w http.ResponseWriter, r *http.Request) {
	tr := f.role.Tracer
	if id := r.URL.Query().Get("id"); id != "" {
		n, err := strconv.ParseUint(id, 10, 64)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad trace id %q", id))
			return
		}
		td, ok := tr.DumpByID(n)
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Sprintf("trace %d not retained", n))
			return
		}
		WriteJSONIndent(w, http.StatusOK, td)
		return
	}
	WriteJSONIndent(w, http.StatusOK, tr.Dump())
}

// ParseQueryLogFilter builds an obs.QueryFilter from /debug/querylog
// request parameters (store, var, min_latency as a Go duration). The
// untrusted values are only compared against records — never used as
// sizes, indexes, or sleeps — so the surface needs no further
// sanitizing.
func ParseQueryLogFilter(q url.Values) (obs.QueryFilter, error) {
	f := obs.QueryFilter{Store: q.Get("store"), Var: q.Get("var")}
	if v := q.Get("min_latency"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return obs.QueryFilter{}, fmt.Errorf("server: bad min_latency %q: %w", v, err)
		}
		if d < 0 {
			return obs.QueryFilter{}, fmt.Errorf("server: min_latency %q must be non-negative", v)
		}
		f.MinWall = d
	}
	return f, nil
}

// handleQlog serves the always-on query log, newest first,
// filterable with ?store=, ?var=, and ?min_latency=.
func (f *Frame) handleQlog(w http.ResponseWriter, r *http.Request) {
	filter, err := ParseQueryLogFilter(r.URL.Query())
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	WriteJSONIndent(w, http.StatusOK, f.qlog.Snapshot(filter))
}

// WriteJSON writes v as a JSON response body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, v, "")
}

// WriteJSONIndent is WriteJSON with indentation, for the human-read
// trace dumps.
func WriteJSONIndent(w http.ResponseWriter, status int, v any) {
	writeJSON(w, status, v, "  ")
}

func writeJSON(w http.ResponseWriter, status int, v any, indent string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", indent)
	if err := enc.Encode(v); err != nil {
		// The response is already committed; nothing to do but note it
		// for the connection (usually a mid-write disconnect).
		_ = err //mlocvet:ignore uncheckederr -- response already committed; a mid-write disconnect has no recovery
	}
}

// WriteError writes a JSON error envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, map[string]string{
		"error":  msg,
		"status": strconv.Itoa(status),
	})
}
