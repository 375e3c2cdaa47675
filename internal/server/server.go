// Package server implements mlocd's HTTP/JSON query service over built
// MLOC stores: a thin, admission-controlled front end that turns remote
// requests into engine queries.
//
// Three mechanisms keep a shared deployment healthy under the paper's
// heterogeneous access patterns:
//
//   - Admission control: a bounded concurrent-query semaphore plus a
//     bounded wait queue. Overload is shed with 429 (queue full) or 503
//     (wait budget expired), both carrying Retry-After, instead of
//     queueing without bound.
//   - Cooperative cancellation: the request context flows through
//     Store.QueryContext down to the per-bin I/O loop, so a
//     disconnected or expired client stops consuming PFS bandwidth and
//     frees its slot at the next bin boundary.
//   - Shared decode cache: when a cache.Cache is configured, decoded
//     storage units are reused across requests and variables, and
//     concurrent decodes of one unit are deduplicated.
//
// The service is fully observable: every request runs under an obs
// trace (span trees retained in a ring buffer, served at
// /debug/traces), and admission, outcome, cache, and per-endpoint
// metrics live in one obs.Registry served at /metrics in Prometheus
// text exposition.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"mloc/internal/cache"
	"mloc/internal/core"
	"mloc/internal/obs"
	"mloc/internal/query"
)

// Config parameterizes the query service.
type Config struct {
	// Stores maps variable names to their built stores. Required.
	Stores map[string]*core.Store
	// Cache, when non-nil, is attached to every store as the shared
	// decoded-unit cache and instrumented on the registry.
	Cache *cache.Cache
	// MaxConcurrent bounds simultaneously executing queries (default 8).
	MaxConcurrent int
	// MaxQueue bounds callers waiting for a slot (default
	// 2×MaxConcurrent); beyond it requests get 429.
	MaxQueue int
	// QueueWait is the longest a request waits for a slot before 503
	// (default 2s).
	QueueWait time.Duration
	// DefaultRanks is the engine parallelism for requests that do not
	// set ranks (default 4).
	DefaultRanks int
	// MaxMatches caps the matches returned per response (default
	// 65536); the full count is always reported.
	MaxMatches int
	// MaxBodyBytes caps the request body (default 1 MiB).
	MaxBodyBytes int64
	// Registry receives the server's (and cache's) metrics and backs
	// GET /metrics. New creates a private one when nil. It must not
	// already hold mloc_server_* or mloc_cache_* families.
	Registry *obs.Registry
	// Tracer retains per-query span trees for GET /debug/traces. New
	// creates one with the default ring capacity when nil.
	Tracer *obs.Tracer
	// SlowQueryThreshold, when positive, logs any query whose wall-time
	// service duration reaches it (with its trace id, so the span tree
	// can be pulled from /debug/traces).
	SlowQueryThreshold time.Duration
	// SLOObjectives are the latency objectives behind the
	// mloc_slo_query_ok_total / mloc_slo_query_breach_total counter
	// pairs (default obs.DefaultSLOObjectives).
	SLOObjectives []time.Duration
	// QueryLogCapacity bounds the always-on query-log ring served at
	// /debug/querylog (default obs.DefaultQueryLogCapacity).
	QueryLogCapacity int
	// Logf receives slow-query log lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) normalize() error {
	if len(c.Stores) == 0 {
		return fmt.Errorf("server: at least one store is required")
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 2 * time.Second
	}
	if c.DefaultRanks <= 0 {
		c.DefaultRanks = 4
	}
	if c.MaxMatches <= 0 {
		c.MaxMatches = 65536
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(obs.DefaultTraceCapacity)
	}
	if c.SLOObjectives == nil {
		objs, err := obs.ParseSLOObjectives(obs.DefaultSLOObjectives)
		if err != nil {
			return fmt.Errorf("server: default slo objectives: %w", err)
		}
		c.SLOObjectives = objs
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// endpointMetrics is the per-route request counter, error counter, and
// service-time histogram.
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	service  *obs.Histogram
}

// Server is the query service. Create with New, mount via Handler.
type Server struct {
	cfg    Config
	adm    *admission
	reg    *obs.Registry
	tracer *obs.Tracer
	qlog   *obs.QueryLog
	slo    *obs.SLO

	draining atomic.Bool

	queries         *obs.Counter
	queriesOK       *obs.Counter
	queriesRejected *obs.Counter
	queriesCanceled *obs.Counter
	queriesFailed   *obs.Counter
	shed            map[string]*obs.Counter
	queueWait       *obs.Histogram
	queryLatency    *obs.Histogram
	endpoints       map[string]*endpointMetrics
}

// New validates the configuration, attaches the shared cache to every
// store, registers the service's metrics, and returns the service.
func New(cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Cache != nil {
		for _, st := range cfg.Stores {
			st.SetDecodeCache(cfg.Cache)
		}
	}
	s := &Server{
		cfg:    cfg,
		adm:    newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait),
		reg:    cfg.Registry,
		tracer: cfg.Tracer,
		qlog:   obs.NewQueryLog(cfg.QueryLogCapacity),
	}
	s.instrument()
	return s, nil
}

// shed reasons, the label values of mloc_server_shed_total.
const (
	shedDraining    = "draining"
	shedQueueFull   = "queue_full"
	shedWaitExpired = "wait_expired"
	shedClientGone  = "client_gone"
)

// instrument registers every server metric family on the registry.
func (s *Server) instrument() {
	reg := s.reg
	s.queries = reg.Counter("mloc_server_queries_total",
		"Query requests received (any outcome).")
	s.queriesOK = reg.Counter("mloc_server_query_outcomes_total",
		"Query outcomes by class.", obs.L("outcome", "ok"))
	s.queriesRejected = reg.Counter("mloc_server_query_outcomes_total",
		"Query outcomes by class.", obs.L("outcome", "rejected"))
	s.queriesCanceled = reg.Counter("mloc_server_query_outcomes_total",
		"Query outcomes by class.", obs.L("outcome", "canceled"))
	s.queriesFailed = reg.Counter("mloc_server_query_outcomes_total",
		"Query outcomes by class.", obs.L("outcome", "failed"))
	s.shed = make(map[string]*obs.Counter)
	for _, reason := range []string{shedDraining, shedQueueFull, shedWaitExpired, shedClientGone} {
		s.shed[reason] = reg.Counter("mloc_server_shed_total",
			"Requests shed by admission control, by reason.", obs.L("reason", reason))
	}
	s.queueWait = reg.Histogram("mloc_server_queue_wait_seconds",
		"Admission-queue wait before a slot was granted.", obs.DefSecondsBuckets())
	s.queryLatency = reg.Histogram("mloc_server_query_latency_seconds",
		"End-to-end query wall latency; slow buckets carry exemplar trace ids.",
		obs.DefSecondsBuckets())
	s.slo = obs.NewSLO(reg, s.cfg.SLOObjectives)
	reg.GaugeFunc("mloc_server_in_flight",
		"Queries currently executing.", func() float64 { return float64(s.adm.inFlight()) })
	reg.GaugeFunc("mloc_server_queue_depth",
		"Callers waiting for an execution slot.", func() float64 { return float64(s.adm.queued()) })
	reg.GaugeFunc("mloc_server_draining",
		"1 while the server rejects new queries for shutdown.", func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("mloc_server_stores",
		"Variables served.", func() float64 { return float64(len(s.cfg.Stores)) })
	s.endpoints = make(map[string]*endpointMetrics)
	for _, ep := range []string{"query", "stats", "vars", "healthz", "metrics", "traces", "querylog"} {
		s.endpoints[ep] = &endpointMetrics{
			requests: reg.Counter("mloc_server_requests_total",
				"HTTP requests by endpoint.", obs.L("endpoint", ep)),
			errors: reg.Counter("mloc_server_request_errors_total",
				"HTTP responses with status >= 400, by endpoint.", obs.L("endpoint", ep)),
			service: reg.Histogram("mloc_server_request_seconds",
				"Wall-clock request service time by endpoint.",
				obs.DefSecondsBuckets(), obs.L("endpoint", ep)),
		}
	}
	if s.cfg.Cache != nil {
		s.cfg.Cache.Instrument(reg)
	}
}

// Registry returns the metrics registry backing /metrics, so the
// embedding process (mlocd) can register more families on it.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer returns the tracer backing /debug/traces.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// QueryLog returns the always-on query log backing /debug/querylog.
func (s *Server) QueryLog() *obs.QueryLog { return s.qlog }

// SetDraining flips the draining flag: while set, new queries get 503
// with Retry-After and in-flight queries run to completion. Graceful
// shutdown sets it before http.Server.Shutdown.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.endpoint("query", s.handleQuery))
	mux.HandleFunc("/stats", s.endpoint("stats", s.handleStats))
	mux.HandleFunc("/vars", s.endpoint("vars", s.handleVars))
	mux.HandleFunc("/healthz", s.endpoint("healthz", s.handleHealthz))
	mux.HandleFunc("/metrics", s.endpoint("metrics", MetricsHandler(s.reg)))
	mux.HandleFunc("/debug/traces", s.endpoint("traces", TracesHandler(s.tracer)))
	mux.HandleFunc("/debug/querylog", s.endpoint("querylog", QueryLogHandler(s.qlog)))
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

// endpoint wraps a handler with the per-endpoint request counter,
// error counter, and service-time histogram.
func (s *Server) endpoint(name string, h http.HandlerFunc) http.HandlerFunc {
	em := s.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		em.requests.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		em.service.Observe(time.Since(start).Seconds())
		if sw.status >= 400 {
			em.errors.Inc()
		}
	}
}

// MatchWire is one match in a query response: the engine's match type
// itself, so a result reaches the encoder without a per-match copy.
type MatchWire = query.Match

// TimeWire is the virtual-time component breakdown in a response.
type TimeWire struct {
	IO          float64 `json:"io"`
	Decompress  float64 `json:"decompress"`
	Reconstruct float64 `json:"reconstruct"`
	Total       float64 `json:"total"`
}

// ResultWire is the JSON response body of POST /query. It is exported
// so the cluster router can decode data-node responses and re-emit
// merged results in exactly this shape — single-node and routed
// queries answer with the same wire format.
type ResultWire struct {
	Var          string      `json:"var"`
	Matches      []MatchWire `json:"matches"`
	MatchesTotal int         `json:"matches_total"`
	Truncated    bool        `json:"truncated"`
	BinsAccessed int         `json:"bins_accessed"`
	BlocksRead   int         `json:"blocks_read"`
	BytesRead    int64       `json:"bytes_read"`
	CacheHits    int         `json:"cache_hits"`
	// BinsPruned, BinsCovered, and IndexNodesRead are the hierarchical
	// index's pruning factors; all zero (and omitted) on flat scans.
	BinsPruned     int      `json:"bins_pruned,omitempty"`
	BinsCovered    int      `json:"bins_covered,omitempty"`
	IndexNodesRead int      `json:"index_nodes_read,omitempty"`
	Time           TimeWire `json:"time"`
	QueuedMS       float64  `json:"queued_ms"`
	// TraceID names the retained span tree for this query; fetch it at
	// /debug/traces?id=<TraceID>.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Trace is the completed span subtree in obs trace wire form,
	// present only when the request carried the X-Mloc-Trace header
	// (a router propagating its trace context). It stays raw so the
	// consumer applies its own size-bounded obs.DecodeTraceWire.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// ToResult converts a decoded wire response back into an engine
// result; the router uses this to merge partial shard responses with
// query.MergeResults. The result shares r's match slice, and carries
// matches_total so a shard's truncation does not shrink the merged
// count.
func (r *ResultWire) ToResult() *query.Result {
	return &query.Result{
		Matches: r.Matches,
		Total:   r.MatchesTotal,
		Time: query.Components{
			IO:          r.Time.IO,
			Decompress:  r.Time.Decompress,
			Reconstruct: r.Time.Reconstruct,
		},
		BytesRead:      r.BytesRead,
		BinsAccessed:   r.BinsAccessed,
		BlocksRead:     r.BlocksRead,
		CacheHits:      r.CacheHits,
		BinsPruned:     r.BinsPruned,
		BinsCovered:    r.BinsCovered,
		IndexNodesRead: r.IndexNodesRead,
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	s.queries.Inc()
	if s.draining.Load() {
		s.queriesRejected.Inc()
		s.shed[shedDraining].Inc()
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	wire, err := ParseRequest(r.Body)
	if err != nil {
		s.queriesFailed.Inc()
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, ok := s.cfg.Stores[wire.Var]
	if !ok {
		s.queriesFailed.Inc()
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown variable %q", wire.Var))
		return
	}
	req, err := wire.ToRequest(st.Shape())
	if err != nil {
		s.queriesFailed.Inc()
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	ranks := wire.Ranks
	if ranks == 0 {
		ranks = s.cfg.DefaultRanks
	}

	start := time.Now()
	remoteTrace := r.Header.Get(obs.TraceHeader) != ""
	ctx, root := s.tracer.StartTrace(r.Context(), "query")
	defer root.End()
	root.SetString("var", wire.Var)

	queued, err := s.adm.acquire(ctx)
	if err != nil {
		s.admissionFailure(w, err)
		return
	}
	defer s.adm.release()
	s.queueWait.Observe(queued.Seconds())
	root.SetFloat("queued_ms", float64(queued.Microseconds())/1000)

	res, err := st.QueryContext(ctx, req, ranks)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The client is gone; nothing useful can be written. The
			// point of this path is that the engine already stopped at a
			// bin boundary and the deferred release frees the slot now
			// rather than after the full scan.
			s.queriesCanceled.Inc()
			s.recordQuery(wire.Var, st, nil, queued, time.Since(start), root.TraceID(), "canceled")
			WriteError(w, http.StatusServiceUnavailable, "query canceled")
			return
		}
		s.queriesFailed.Inc()
		s.recordQuery(wire.Var, st, nil, queued, time.Since(start), root.TraceID(), "error")
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.queriesOK.Inc()
	root.SetInt("matches", int64(len(res.Matches)))
	root.SetFloat("virt_total_s", res.Time.Total())
	out := BuildResult(wire.Var, res, s.cfg.MaxMatches, queued)
	out.TraceID = root.TraceID()
	wall := time.Since(start)
	// The span tree must be complete before it can travel in the
	// envelope, so the root ends here; the deferred End is a no-op.
	root.End()
	if remoteTrace {
		if td, ok := s.tracer.DumpByID(out.TraceID); ok {
			data, err := obs.EncodeTraceWire(td, obs.DefaultMaxWireBytes)
			if err != nil {
				// An over-bound tree is dropped from the envelope, never
				// truncated; the trace is still served at /debug/traces.
				s.cfg.Logf("server: trace %d not attached to response: %v", out.TraceID, err)
			} else {
				out.Trace = data
			}
		}
	}
	s.recordQuery(wire.Var, st, res, queued, wall, out.TraceID, "ok")
	s.maybeLogSlow(wire.Var, wall, res, out.TraceID)
	if err := WriteResult(w, &out, wire.IndexOnly, nil); err != nil {
		s.cfg.Logf("server: trace %d: %v", out.TraceID, err)
	}
}

// recordQuery feeds one finished query into the always-on query log,
// the SLO counters, and the latency histogram (whose bucket keeps the
// trace id as its exemplar). res is nil for canceled/failed queries.
func (s *Server) recordQuery(name string, st *core.Store, res *query.Result, queued, wall time.Duration, traceID uint64, outcome string) {
	rec := obs.QueryRecord{
		Store:       string(st.Mode()),
		Var:         name,
		Selectivity: "unknown",
		Outcome:     outcome,
		QueueWaitMS: float64(queued.Microseconds()) / 1000,
		WallMS:      float64(wall.Microseconds()) / 1000,
		TraceID:     traceID,
	}
	if res != nil {
		var domain int64 = 1
		for _, d := range st.Shape() {
			domain *= int64(d)
		}
		rec.Selectivity = obs.SelectivityClass(len(res.Matches), domain)
		rec.Matches = len(res.Matches)
		rec.BinsPruned = res.BinsPruned
		rec.BinsCovered = res.BinsCovered
		rec.CacheHits = res.CacheHits
		rec.CacheMisses = res.BlocksRead
		rec.BytesDecoded = res.BytesRead
		rec.VirtS = res.Time.Total()
	}
	s.qlog.Append(rec)
	s.slo.Observe(wall)
	s.queryLatency.ObserveExemplar(wall.Seconds(), traceID)
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

// QueryLogHandler serves an always-on query log, newest first,
// filterable with ?store=, ?var=, and ?min_latency=. Like MetricsHandler
// and TracesHandler it is the one implementation of its debug endpoint:
// the data node and the router both mount it, over their own log.
func QueryLogHandler(ql *obs.QueryLog) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			WriteError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		f, err := ParseQueryLogFilter(r.URL.Query())
		if err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		WriteJSONIndent(w, http.StatusOK, ql.Snapshot(f))
	}
}

// maybeLogSlow emits the slow-query log line when the wall-clock
// service time reaches the configured threshold.
func (s *Server) maybeLogSlow(name string, wall time.Duration, res *query.Result, traceID uint64) {
	if s.cfg.SlowQueryThreshold <= 0 || wall < s.cfg.SlowQueryThreshold {
		return
	}
	s.cfg.Logf("server: slow query var=%s wall=%s virt=%.6fs matches=%d bytes=%d trace_id=%d",
		name, wall, res.Time.Total(), len(res.Matches), res.BytesRead, traceID)
}

// admissionFailure maps an acquire error to its HTTP response.
func (s *Server) admissionFailure(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.queriesRejected.Inc()
		s.shed[shedQueueFull].Inc()
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "query queue full")
	case errors.Is(err, errQueueTimeout):
		s.queriesRejected.Inc()
		s.shed[shedWaitExpired].Inc()
		w.Header().Set("Retry-After", "2")
		WriteError(w, http.StatusServiceUnavailable, "no query slot within wait budget")
	default: // the caller's context ended while queued
		s.queriesCanceled.Inc()
		s.shed[shedClientGone].Inc()
		WriteError(w, http.StatusServiceUnavailable, "canceled while queued")
	}
}

// BuildResult converts an engine result to the wire form, capping the
// match list, which it shares with res. The router calls it with the
// merged result of a fan-out so routed responses are built by the same
// code path as single-node ones.
func BuildResult(name string, res *query.Result, maxMatches int, queued time.Duration) ResultWire {
	out := ResultWire{
		Var:            name,
		Matches:        res.Matches,
		MatchesTotal:   res.MatchCount(),
		BinsAccessed:   res.BinsAccessed,
		BlocksRead:     res.BlocksRead,
		BytesRead:      res.BytesRead,
		CacheHits:      res.CacheHits,
		BinsPruned:     res.BinsPruned,
		BinsCovered:    res.BinsCovered,
		IndexNodesRead: res.IndexNodesRead,
		Time: TimeWire{
			IO:          res.Time.IO,
			Decompress:  res.Time.Decompress,
			Reconstruct: res.Time.Reconstruct,
			Total:       res.Time.Total(),
		},
		QueuedMS: float64(queued.Microseconds()) / 1000,
	}
	if len(out.Matches) > maxMatches {
		out.Matches = out.Matches[:maxMatches]
	}
	if out.Matches == nil {
		out.Matches = []MatchWire{} // "matches":[] rather than null
	}
	out.Truncated = len(out.Matches) < out.MatchesTotal
	return out
}

// handleStats serves a flat JSON object of numeric counters (expvar
// style). The values are read back from the metrics registry — /stats
// is a legacy view over the same counters /metrics exposes, so the two
// can never disagree.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	stats := map[string]int64{
		"queries_total":    s.queries.Value(),
		"queries_ok":       s.queriesOK.Value(),
		"queries_rejected": s.queriesRejected.Value(),
		"queries_canceled": s.queriesCanceled.Value(),
		"queries_failed":   s.queriesFailed.Value(),
		"queue_wait_us":    int64(s.queueWait.Sum() * 1e6),
		"in_flight":        int64(s.adm.inFlight()),
		"queued":           s.adm.queued(),
		"draining":         0,
		"stores":           int64(len(s.cfg.Stores)),
	}
	if s.draining.Load() {
		stats["draining"] = 1
	}
	if s.cfg.Cache != nil {
		cs := s.cfg.Cache.Stats()
		stats["cache_hits"] = cs.Hits
		stats["cache_misses"] = cs.Misses
		stats["cache_evictions"] = cs.Evictions
		stats["cache_waits"] = cs.Waits
		stats["cache_suppressed"] = cs.Suppressed
		stats["cache_entries"] = int64(cs.Entries)
		stats["cache_bytes"] = cs.Bytes
		stats["cache_capacity"] = cs.Capacity
	}
	WriteJSON(w, http.StatusOK, stats)
}

// MetricsHandler serves a registry in Prometheus text exposition.
func MetricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			WriteError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		if err := reg.WritePrometheus(w); err != nil {
			// The response is already committed (mid-write disconnect).
			_ = err //mlocvet:ignore uncheckederr -- response already committed; a mid-write disconnect has no recovery
		}
	}
}

// TracesHandler serves a tracer's retained traces: the full ring (newest
// first) by default, or one span tree with ?id=<trace_id>.
func TracesHandler(tr *obs.Tracer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			WriteError(w, http.StatusMethodNotAllowed, "GET required")
			return
		}
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
}

// VarWire describes one served variable in GET /vars.
type VarWire struct {
	Var   string `json:"var"`
	Shape []int  `json:"shape"`
	Bins  int    `json:"bins"`
	Mode  string `json:"mode"`
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	names := make([]string, 0, len(s.cfg.Stores))
	for name := range s.cfg.Stores {
		names = append(names, name)
	}
	sort.Strings(names)
	vars := make([]VarWire, 0, len(names))
	for _, name := range names {
		st := s.cfg.Stores[name]
		vars = append(vars, VarWire{
			Var:   name,
			Shape: st.Shape(),
			Bins:  st.NumBins(),
			Mode:  string(st.Mode()),
		})
	}
	WriteJSON(w, http.StatusOK, vars)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// WriteJSON writes v as a JSON response body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// The response is already committed; nothing to do but note it
		// for the connection (usually a mid-write disconnect).
		_ = err //mlocvet:ignore uncheckederr -- response already committed; a mid-write disconnect has no recovery
	}
}

// WriteJSONIndent is WriteJSON with indentation, for the human-read
// trace dumps.
func WriteJSONIndent(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
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
