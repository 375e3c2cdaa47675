package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mloc/internal/obs"
	"mloc/internal/query"
	"mloc/internal/server"
)

// Handler returns the router's HTTP routes — the full single-node
// query API plus the cluster introspection endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", rt.counted("query", rt.handleQuery))
	mux.HandleFunc("/vars", rt.counted("vars", rt.handleVars))
	mux.HandleFunc("/stats", rt.counted("stats", rt.handleStats))
	mux.HandleFunc("/healthz", rt.counted("healthz", rt.handleHealthz))
	mux.HandleFunc("/metrics", rt.counted("metrics", server.MetricsHandler(rt.cfg.Registry)))
	mux.HandleFunc("/debug/traces", rt.counted("traces", server.TracesHandler(rt.cfg.Tracer)))
	mux.HandleFunc("/debug/querylog", rt.counted("querylog", server.QueryLogHandler(rt.qlog)))
	mux.HandleFunc("/cluster/nodes", rt.counted("nodes", rt.handleNodes))
	return mux
}

// counted wraps a handler with its per-endpoint request counter.
func (rt *Router) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	ctr := rt.requests[name]
	return func(w http.ResponseWriter, r *http.Request) {
		ctr.Inc()
		h(w, r)
	}
}

// shardDetail is the per-shard report attached to routed responses.
type shardDetail struct {
	// Node is the data node that answered (or the primary owner when
	// every replica failed).
	Node string `json:"node"`
	// Rows is the half-open dimension-0 row range the shard covered.
	Rows string `json:"rows"`
	OK   bool   `json:"ok"`
	// Hedged reports that a replica was raced against the primary.
	Hedged bool `json:"hedged,omitempty"`
	// Failovers counts replica retries after hard failures.
	Failovers int    `json:"failovers,omitempty"`
	Error     string `json:"error,omitempty"`
	// MS is the shard call's wall-clock latency.
	MS float64 `json:"ms"`
}

// routedAnnotations is the cluster's partial-results report.
type routedAnnotations struct {
	// Degraded is true when at least one shard failed and the matches
	// are therefore a subset of the full answer.
	Degraded bool `json:"degraded"`
	// Shards details every shard call, failed ones first-class.
	Shards []shardDetail `json:"shards"`
}

// routedWire is the routed query response: the single-node wire format
// with the cluster's annotations appended.
type routedWire struct {
	server.ResultWire
	routedAnnotations
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		server.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	start := time.Now()
	rt.queries.Inc()
	if rt.draining.Load() {
		rt.outcomes[outcomeRejected].Inc()
		w.Header().Set("Retry-After", "5")
		server.WriteError(w, http.StatusServiceUnavailable, "router is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	wire, err := server.ParseRequest(r.Body)
	if err != nil {
		rt.outcomes[outcomeRejected].Inc()
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	vi, ok := rt.vars[wire.Var]
	if !ok {
		rt.outcomes[outcomeRejected].Inc()
		server.WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown variable %q", wire.Var))
		return
	}
	calls, err := rt.plan(vi, wire)
	if err != nil {
		rt.outcomes[outcomeRejected].Inc()
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	remoteTrace := r.Header.Get(obs.TraceHeader) != ""
	ctx, root := rt.cfg.Tracer.StartTrace(r.Context(), "route")
	defer root.End()
	root.SetString("var", wire.Var)
	root.SetInt("fanout", int64(len(calls)))

	outcomes := rt.scatter(ctx, calls)

	parts := make([]*query.Result, 0, len(outcomes))
	details := make([]shardDetail, 0, len(outcomes))
	failed := 0
	for _, o := range outcomes {
		d := shardDetail{
			Node:      o.node,
			Rows:      fmt.Sprintf("[%d,%d)", o.call.lo, o.call.hi),
			OK:        o.err == nil,
			Hedged:    o.hedged,
			Failovers: o.failovers,
			MS:        float64(o.elapsed.Microseconds()) / 1000,
		}
		if o.err != nil {
			failed++
			d.Error = o.err.Error()
			if d.Node == "" {
				d.Node = o.call.replicas[0]
			}
		} else {
			parts = append(parts, o.res.ToResult())
		}
		details = append(details, d)
	}

	if len(outcomes) > 0 && failed == len(outcomes) {
		rt.outcomes[outcomeFailed].Inc()
		root.SetBool("failed", true)
		rt.recordQuery(wire.Var, vi, nil, len(outcomes), true, 0,
			time.Since(start), root.TraceID(), "error")
		server.WriteError(w, http.StatusBadGateway,
			fmt.Sprintf("all %d shards failed; first: %s", failed, details[0].Error))
		return
	}

	// Each shard reports its full match count, so the merged total is
	// exact even where a shard (or the cap below) cut its list short.
	merged := query.MergeResults(parts)
	out := routedWire{
		ResultWire:        server.BuildResult(wire.Var, merged, rt.cfg.MaxMatches, 0),
		routedAnnotations: routedAnnotations{Degraded: failed > 0, Shards: details},
	}
	out.TraceID = root.TraceID()
	root.SetInt("matches", int64(out.MatchesTotal))
	// The grafted remote subtrees carry the per-node cost detail; the
	// root carries the merged (cross-shard MaxWith) virtual total — the
	// simulated latency the client is actually billed, since shards ran
	// concurrently.
	root.AddVirt(merged.Time.Total())
	if failed > 0 {
		rt.partials.Inc()
		rt.outcomes[outcomeDegraded].Inc()
		root.SetBool("degraded", true)
		rt.cfg.Logf("router: degraded result for var=%s: %d/%d shards failed",
			wire.Var, failed, len(outcomes))
	} else {
		rt.outcomes[outcomeOK].Inc()
	}
	wall := time.Since(start)
	// The tree must be complete before it is serialized or logged; the
	// deferred End above becomes a no-op.
	root.End()
	if remoteTrace {
		if td, ok := rt.cfg.Tracer.DumpByID(out.TraceID); ok {
			if data, err := obs.EncodeTraceWire(td, obs.DefaultMaxWireBytes); err != nil {
				// Oversized trees are dropped whole, never truncated.
				rt.cfg.Logf("router: trace %d not attached to response: %v", out.TraceID, err)
			} else {
				out.Trace = data
			}
		}
	}
	rt.recordQuery(wire.Var, vi, merged, len(outcomes), failed > 0,
		out.MatchesTotal, wall, out.TraceID, "ok")
	annotations, err := json.Marshal(out.routedAnnotations)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if err := server.WriteResult(w, &out.ResultWire, wire.IndexOnly, annotations); err != nil {
		rt.cfg.Logf("router: trace %d: %v", out.TraceID, err)
	}
}

// recordQuery feeds one finished routed query into the always-on query
// log, the SLO counters, and the latency histogram (whose bucket keeps
// the trace id as its exemplar). merged is nil when every shard failed.
func (rt *Router) recordQuery(name string, vi *varInfo, merged *query.Result,
	shards int, degraded bool, matches int, wall time.Duration, traceID uint64, outcome string) {
	rec := obs.QueryRecord{
		Store:       vi.mode,
		Var:         name,
		Selectivity: "unknown",
		Outcome:     outcome,
		Shards:      shards,
		Degraded:    degraded,
		WallMS:      float64(wall.Microseconds()) / 1000,
		TraceID:     traceID,
	}
	if merged != nil {
		var domain int64 = 1
		for _, d := range vi.shape {
			domain *= int64(d)
		}
		rec.Selectivity = obs.SelectivityClass(matches, domain)
		rec.Matches = matches
		rec.BinsPruned = merged.BinsPruned
		rec.BinsCovered = merged.BinsCovered
		rec.CacheHits = merged.CacheHits
		rec.CacheMisses = merged.BlocksRead
		rec.BytesDecoded = merged.BytesRead
		rec.VirtS = merged.Time.Total()
	}
	rt.qlog.Append(rec)
	rt.slo.Observe(wall)
	rt.queryLatency.ObserveExemplar(wall.Seconds(), traceID)
}

func (rt *Router) handleVars(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		server.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	vars := make([]server.VarWire, 0, len(rt.varNames))
	for _, name := range rt.varNames {
		vi := rt.vars[name]
		vars = append(vars, server.VarWire{Var: name, Shape: vi.shape, Bins: vi.bins, Mode: vi.mode})
	}
	server.WriteJSON(w, http.StatusOK, vars)
}

// handleStats serves the flat expvar-style counter view, mirroring the
// data-node /stats contract so mlocctl stats works against a router.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		server.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	stats := map[string]int64{
		"queries_total":         rt.queries.Value(),
		"queries_ok":            rt.outcomes[outcomeOK].Value(),
		"queries_degraded":      rt.outcomes[outcomeDegraded].Value(),
		"queries_failed":        rt.outcomes[outcomeFailed].Value(),
		"queries_rejected":      rt.outcomes[outcomeRejected].Value(),
		"fanout_total":          rt.fanout.Value(),
		"hedges_total":          rt.hedges.Value(),
		"failovers_total":       rt.failovers.Value(),
		"partial_results_total": rt.partials.Value(),
		"nodes":                 int64(len(rt.cfg.Nodes)),
		"vars":                  int64(len(rt.varNames)),
		"draining":              0,
	}
	if rt.draining.Load() {
		stats["draining"] = 1
	}
	if rt.cfg.Health != nil {
		stats["nodes_up"] = int64(rt.cfg.Health.UpCount())
	}
	server.WriteJSON(w, http.StatusOK, stats)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.draining.Load() {
		server.WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if rt.cfg.Health != nil && rt.cfg.Health.UpCount() == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, "no data nodes are up")
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// nodeWire is one data node in GET /cluster/nodes.
type nodeWire struct {
	Node string `json:"node"`
	// Slabs is how many slab keys name this node as primary owner.
	Slabs int `json:"slabs"`
	// Health is the checker's view; absent when no checker runs.
	Health *healthView `json:"health,omitempty"`
}

// healthView mirrors health.NodeStatus minus the redundant node name.
type healthView struct {
	Up          bool    `json:"up"`
	Failures    int     `json:"consecutive_failures"`
	LastProbeMS float64 `json:"last_probe_ms"`
	LastError   string  `json:"last_error,omitempty"`
	Transitions int64   `json:"transitions"`
}

// topologyWire is the GET /cluster/nodes response.
type topologyWire struct {
	Nodes       []nodeWire `json:"nodes"`
	Replication int        `json:"replication"`
	Seed        uint64     `json:"seed"`
	SlabsPerVar int        `json:"slabs_per_var"`
	Vars        []string   `json:"vars"`
}

func (rt *Router) handleNodes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		server.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	primaries := make(map[string]int, len(rt.cfg.Nodes))
	for _, name := range rt.varNames {
		for _, sl := range rt.vars[name].slabs {
			primaries[sl.owners[0]]++
		}
	}
	var healthByNode map[string]*healthView
	if rt.cfg.Health != nil {
		healthByNode = make(map[string]*healthView)
		for _, st := range rt.cfg.Health.Snapshot() {
			healthByNode[st.Node] = &healthView{
				Up:          st.Up,
				Failures:    st.Failures,
				LastProbeMS: st.LastProbeMS,
				LastError:   st.LastError,
				Transitions: st.Transitions,
			}
		}
	}
	nodes := make([]nodeWire, 0, len(rt.cfg.Nodes))
	for _, n := range rt.smap.Nodes() {
		nodes = append(nodes, nodeWire{Node: n, Slabs: primaries[n], Health: healthByNode[n]})
	}
	server.WriteJSONIndent(w, http.StatusOK, topologyWire{
		Nodes:       nodes,
		Replication: rt.smap.Replication(),
		Seed:        rt.cfg.Seed,
		SlabsPerVar: rt.cfg.SlabsPerVar,
		Vars:        rt.Vars(),
	})
}
