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
//
// The package is laid out as a role-agnostic service Frame (frame.go:
// POST /query and its bookkeeping, the introspection endpoints, the
// draining flag) and the roles over it. Server, here, is the data-node
// role; the cluster router (internal/cluster/router) is the other.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
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
	// Registry receives the server's (and cache's) metrics and backs
	// GET /metrics. New creates a private one when nil. It must not
	// already hold mloc_server_* or mloc_cache_* families.
	Registry *obs.Registry
	// Tracer retains per-query span trees for GET /debug/traces. New
	// creates one with the default ring capacity when nil.
	Tracer *obs.Tracer
	// SLOObjectives are the latency objectives behind the
	// mloc_slo_query_ok_total / mloc_slo_query_breach_total counter
	// pairs (default obs.DefaultSLOObjectives).
	SLOObjectives []time.Duration
	// Logf receives the service's log lines (default log.Printf).
	Logf func(format string, args ...any)
}

// normalize checks the data node's own settings and defaults them;
// the ones both roles share are defaulted by NewFrame.
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
	return nil
}

// Server is the data-node role over the service frame: it answers a
// query from its own stores, behind admission control. Create with New,
// mount via Handler.
type Server struct {
	*Frame
	cfg Config
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
	s := &Server{cfg: cfg}
	frame, err := NewFrame(Role{
		Name:          "server",
		Prefix:        "mloc_server",
		RootSpan:      "query",
		Limits:        &Limits{MaxConcurrent: cfg.MaxConcurrent, MaxQueue: cfg.MaxQueue, QueueWait: cfg.QueueWait},
		MaxMatches:    cfg.MaxMatches,
		Registry:      cfg.Registry,
		Tracer:        cfg.Tracer,
		SLOObjectives: cfg.SLOObjectives,
		Logf:          cfg.Logf,
		Vars:          s.vars,
		Prepare:       s.prepare,
		Stats:         s.stats,
	})
	if err != nil {
		return nil, err
	}
	s.Frame = frame
	reg := s.Registry()
	reg.GaugeFunc("mloc_server_stores",
		"Variables served.", func() float64 { return float64(len(cfg.Stores)) })
	if cfg.Cache != nil {
		cfg.Cache.Instrument(reg)
	}
	return s, nil
}

// prepare resolves the request against its store; the returned Run is
// the engine query.
func (s *Server) prepare(wire *QueryWire) (Prepared, int, error) {
	st, ok := s.cfg.Stores[wire.Var]
	if !ok {
		return Prepared{}, http.StatusNotFound, fmt.Errorf("server: unknown variable %q", wire.Var)
	}
	shape := st.Shape()
	req, err := wire.ToRequest(shape)
	if err != nil {
		return Prepared{}, http.StatusBadRequest, err
	}
	ranks := wire.Ranks
	if ranks == 0 {
		ranks = s.cfg.DefaultRanks
	}
	run := func(ctx context.Context, root *obs.Span) Answer {
		res, err := st.QueryContext(ctx, req, ranks)
		if err != nil {
			return Answer{Err: err, Status: http.StatusInternalServerError}
		}
		root.SetFloat("virt_total_s", res.Time.Total())
		return Answer{Result: res}
	}
	return Prepared{Store: string(st.Mode()), Shape: shape, Run: run}, 0, nil
}

// stats adds the store count and the shared cache's counters to /stats.
func (s *Server) stats(stats map[string]int64) {
	stats["stores"] = int64(len(s.cfg.Stores))
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
}

// VarWire describes one served variable in GET /vars.
type VarWire struct {
	Var   string `json:"var"`
	Shape []int  `json:"shape"`
	Bins  int    `json:"bins"`
	Mode  string `json:"mode"`
}

func (s *Server) vars() []VarWire {
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
	return vars
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
	// BinsPruned, BinsCovered, and IndexNodesRead are an index-only
	// value query's pruning factors; all zero (and omitted) otherwise.
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
