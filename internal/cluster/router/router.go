// Package router is the metadata plane of a sharded mlocd cluster: it
// owns the shard map (consistent-hash placement of each variable's
// storage-order row slabs onto data nodes), serves the same HTTP/JSON
// query API as a single mlocd, and answers each query by
// scatter-gathering sub-queries to the data nodes that own the touched
// slabs.
//
// Routing happens before any fan-out: a spatial constraint is
// intersected with the slab table, so shards a range query cannot
// touch are pruned and never receive traffic. Robustness is built in:
//
//   - Per-shard timeouts bound how long one slow node can hold a query.
//   - Hedged retries launch the same sub-query on a replica when the
//     primary is slow; the first answer wins.
//   - Failover walks the replica list on hard failures (connection
//     refused, HTTP errors, corrupt payloads).
//   - Partial results: when every replica of a shard fails, the query
//     still answers with what the surviving shards returned, flagged
//     "degraded": true with per-shard error detail, instead of failing
//     outright.
//
// The router's /metrics is the cluster roll-up: per-node health
// gauges, fan-out/hedge/failover/partial counters, and per-node shard
// latency histograms, all on one obs.Registry.
package router

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"time"

	"mloc/internal/client"
	"mloc/internal/cluster/health"
	"mloc/internal/cluster/shardmap"
	"mloc/internal/grid"
	"mloc/internal/obs"
	"mloc/internal/server"
)

// Config parameterizes the router.
type Config struct {
	// Nodes are the data-node addresses (host:port or URL). Required.
	Nodes []string
	// Replication is how many nodes own each slab (clamped to the node
	// count; default 2). Owners beyond the primary serve hedges and
	// failover.
	Replication int
	// SlabsPerVar is how many storage-order row slabs each variable is
	// split into (default 4 x nodes, at least the node count).
	SlabsPerVar int
	// Seed feeds the shard map so placement is reproducible (default 1).
	Seed uint64
	// ShardTimeout bounds one shard call including all its retries
	// (default 10s).
	ShardTimeout time.Duration
	// HedgeAfter launches a replica request when the primary has not
	// answered within this duration; 0 disables hedging (default 250ms).
	HedgeAfter time.Duration
	// MaxMatches caps matches in merged responses (default 65536).
	MaxMatches int
	// Client issues node requests (default: NewNodeClient's pool; the
	// per-call context enforces ShardTimeout).
	Client *http.Client
	// Health, when non-nil, is consulted to skip dead nodes during
	// planning and fed per-call outcomes. Without it every node is
	// assumed alive until its calls fail.
	Health *health.Checker
	// Registry receives the cluster metrics and backs GET /metrics.
	// New creates a private one when nil.
	Registry *obs.Registry
	// Tracer retains per-query fan-out traces for GET /debug/traces.
	// New creates one with the default capacity when nil.
	Tracer *obs.Tracer
	// SLOObjectives are the latency objectives behind the
	// mloc_slo_query_* counters (default obs.DefaultSLOObjectives).
	SLOObjectives []time.Duration
	// DisableTracePropagation stops the router from asking data nodes
	// for their span subtrees; shard spans then stay leaf-only. The
	// zero value propagates, matching the always-on tracing posture.
	DisableTracePropagation bool
	// Logf receives routing log lines (default log.Printf).
	Logf func(format string, args ...any)
}

// normalize checks the router's own settings and defaults them; the
// ones both roles share are defaulted by server.NewFrame.
func (c *Config) normalize() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("router: at least one data node is required")
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.SlabsPerVar <= 0 {
		c.SlabsPerVar = 4 * len(c.Nodes)
	}
	if c.SlabsPerVar < len(c.Nodes) {
		c.SlabsPerVar = len(c.Nodes)
	}
	if c.SlabsPerVar > 2*server.MaxWireRows {
		// A node call lists at most one row range per two slabs.
		return fmt.Errorf("router: %d slabs per variable, limit %d", c.SlabsPerVar, 2*server.MaxWireRows)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Second
	}
	if c.HedgeAfter < 0 {
		c.HedgeAfter = 0
	}
	if c.Client == nil {
		c.Client = NewNodeClient(len(c.Nodes))
	}
	return nil
}

// nodeConnsPerHost is how many idle connections the default node client
// keeps to each data node. A routed query makes one call per node, so
// this is the number of concurrent queries whose node calls reuse
// connections; beyond it, calls dial and their connections close after
// use, as with http.DefaultTransport, which keeps two. At 4 concurrent
// queries, 50 of them dial each node 4 times through this client
// (TestNodeCallsReuseConnections) and 10 to 14 times with two idle
// connections per node.
const nodeConnsPerHost = 4

// NewNodeClient returns the client a router over nodes data nodes uses
// when its Config leaves Client nil: one transport that keeps
// nodeConnsPerHost idle connections per node. mlocd hands the same
// client to its health checker, so probes share the pool.
func NewNodeClient(nodes int) *http.Client {
	return client.NewPool(nodes, nodeConnsPerHost)
}

// slab is one contiguous storage-order row range of a variable and the
// nodes that own it.
type slab struct {
	lo, hi int // half-open row range on dimension 0
	owners []string
}

// varInfo is the router's metadata for one variable.
type varInfo struct {
	shape []int
	bins  int
	mode  string
	slabs []slab
}

// Router is the cluster's query front end: the router role over the
// service frame. It answers a query by planning shard calls, scattering
// them, and merging what came back; health, shard and graft metrics are
// its own. Create with New, learn the topology with Bootstrap, then
// mount Handler.
type Router struct {
	*server.Frame
	cfg  Config
	smap *shardmap.Map

	// vars is written once by Bootstrap and read-only afterwards.
	vars     map[string]*varInfo
	varNames []string

	fanout       *obs.Counter
	hedges       *obs.Counter
	failovers    *obs.Counter
	partials     *obs.Counter
	shardErrors  map[string]*obs.Counter
	shardLatency map[string]*obs.Histogram
	grafts       *obs.Counter
	graftDrops   *obs.Counter
	graftErrors  *obs.Counter
}

// New validates the configuration, builds the shard map, and registers
// the cluster metrics. Call Bootstrap before serving.
func New(cfg Config) (*Router, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	smap, err := shardmap.New(shardmap.Config{
		Seed:        cfg.Seed,
		Replication: cfg.Replication,
	}, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{cfg: cfg, smap: smap, vars: make(map[string]*varInfo)}
	// No Limits: the router admits every query (ROADMAP item 3).
	rt.Frame, err = server.NewFrame(server.Role{
		Name:          "router",
		Prefix:        "mloc_cluster",
		RootSpan:      "route",
		MaxMatches:    cfg.MaxMatches,
		Registry:      cfg.Registry,
		Tracer:        cfg.Tracer,
		SLOObjectives: cfg.SLOObjectives,
		Logf:          cfg.Logf,
		Vars:          rt.listVars,
		Prepare:       rt.prepare,
		Stats:         rt.stats,
		Unhealthy:     rt.unhealthy,
		Routes:        []server.Route{{Path: "/cluster/nodes", Name: "nodes", Handler: rt.handleNodes}},
	})
	if err != nil {
		return nil, err
	}
	rt.instrument()
	return rt, nil
}

// instrument registers the router's own metric families: fan-out,
// per-node shard health and latency, and trace grafting.
func (rt *Router) instrument() {
	reg := rt.Registry()
	rt.fanout = reg.Counter("mloc_cluster_fanout_total",
		"Node calls issued, one per answering node per query (excluding hedges and failover retries).")
	rt.hedges = reg.Counter("mloc_cluster_hedges_total",
		"Hedged sub-queries launched because a primary was slow.")
	rt.failovers = reg.Counter("mloc_cluster_failovers_total",
		"Sub-queries retried on a replica after a hard failure.")
	rt.partials = reg.Counter("mloc_cluster_partial_results_total",
		"Queries answered degraded because at least one shard failed.")
	reg.GaugeFunc("mloc_cluster_nodes",
		"Data nodes in the shard map.", func() float64 { return float64(len(rt.cfg.Nodes)) })
	if rt.cfg.Health != nil {
		reg.GaugeFunc("mloc_cluster_nodes_up",
			"Data nodes currently passing health checks.",
			func() float64 { return float64(rt.cfg.Health.UpCount()) })
	}
	reg.GaugeFunc("mloc_cluster_replication",
		"Effective replication factor of the shard map.",
		func() float64 { return float64(rt.smap.Replication()) })
	rt.shardErrors = make(map[string]*obs.Counter, len(rt.cfg.Nodes))
	rt.shardLatency = make(map[string]*obs.Histogram, len(rt.cfg.Nodes))
	for _, n := range rt.cfg.Nodes {
		rt.shardErrors[n] = reg.Counter("mloc_cluster_shard_errors_total",
			"Failed shard calls by node.", obs.L("node", n))
		rt.shardLatency[n] = reg.Histogram("mloc_cluster_shard_latency_seconds",
			"Wall-clock shard call latency by node (successful calls).",
			obs.DefSecondsBuckets(), obs.L("node", n))
	}
	rt.grafts = reg.Counter("mloc_cluster_trace_grafts_total",
		"Remote span subtrees grafted into router traces.")
	rt.graftDrops = reg.Counter("mloc_cluster_trace_graft_dropped_spans_total",
		"Remote spans dropped while grafting (trace span cap, or drops the node itself reported).")
	rt.graftErrors = reg.Counter("mloc_cluster_trace_graft_errors_total",
		"Remote trace payloads rejected as oversized or undecodable.")
}

// bootstrapWait bounds how long Bootstrap retries unreachable nodes; a
// caller that needs a shorter bound passes a context carrying it.
const bootstrapWait = 30 * time.Second

// Bootstrap learns the topology: it fetches /vars from every data node
// (retrying unreachable ones until bootstrapWait or ctx expires),
// verifies all nodes serve an identical variable set, and builds the
// slab table.
func (rt *Router) Bootstrap(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, bootstrapWait)
	defer cancel()
	var reference []server.VarWire
	for i, node := range rt.cfg.Nodes {
		vars, err := rt.fetchVars(ctx, node)
		if err != nil {
			return fmt.Errorf("router: bootstrap %s: %w", node, err)
		}
		if i == 0 {
			reference = vars
			continue
		}
		if !reflect.DeepEqual(vars, reference) {
			return fmt.Errorf("router: node %s serves %v, node %s serves %v; data nodes must be built from identical store specs",
				node, varNamesOf(vars), rt.cfg.Nodes[0], varNamesOf(reference))
		}
	}
	for _, v := range reference {
		rt.vars[v.Var] = &varInfo{
			shape: v.Shape,
			bins:  v.Bins,
			mode:  v.Mode,
			slabs: rt.computeSlabs(v.Var, v.Shape),
		}
		rt.varNames = append(rt.varNames, v.Var)
	}
	sort.Strings(rt.varNames)
	rt.Logf("router: bootstrapped %d vars over %d nodes (replication %d, %d slabs/var)",
		len(rt.varNames), len(rt.cfg.Nodes), rt.smap.Replication(), rt.cfg.SlabsPerVar)
	return nil
}

// fetchVars GETs one node's /vars, retrying while ctx lasts so a
// router can start alongside its data nodes.
func (rt *Router) fetchVars(ctx context.Context, node string) ([]server.VarWire, error) {
	var lastErr error
	for {
		vars, err := rt.fetchVarsOnce(ctx, node)
		if err == nil {
			return vars, nil
		}
		lastErr = err
		if serr := sleepCtx(ctx, 200*time.Millisecond); serr != nil {
			return nil, fmt.Errorf("router: %w (last error: %v)", serr, lastErr)
		}
	}
}

// sleepCtx waits d or until ctx ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (rt *Router) fetchVarsOnce(ctx context.Context, node string) ([]server.VarWire, error) {
	req, err := client.NewRequest(ctx, http.MethodGet, client.BaseURL(node)+"/vars", nil)
	if err != nil {
		return nil, err
	}
	var vars []server.VarWire
	// A /vars listing is metadata; a corrupt or hostile node must not
	// OOM the router.
	if err := client.JSON(rt.cfg.Client, req, client.MaxMetaBytes, &vars); err != nil {
		return nil, fmt.Errorf("router: %s /vars: %w", node, err)
	}
	if len(vars) == 0 {
		return nil, fmt.Errorf("router: %s serves no variables", node)
	}
	// computeSlabs cuts dimension 0 into row ranges, so a shape must
	// be checked whole before a slab is sized from it.
	for _, v := range vars {
		if err := grid.Shape(v.Shape).Validate(); err != nil {
			return nil, fmt.Errorf("router: %s /vars: %s: %w", node, v.Var, err)
		}
	}
	return vars, nil
}

func varNamesOf(vars []server.VarWire) []string {
	names := make([]string, len(vars))
	for i, v := range vars {
		names[i] = v.Var
	}
	return names
}

// computeSlabs splits a variable's dimension-0 extent into
// SlabsPerVar contiguous half-open row ranges and places each on the
// ring under the key "var/slab<i>".
func (rt *Router) computeSlabs(name string, shape []int) []slab {
	rows := shape[0]
	n := rt.cfg.SlabsPerVar
	if n > rows {
		n = rows
	}
	slabs := make([]slab, 0, n)
	for i := 0; i < n; i++ {
		lo := i * rows / n
		hi := (i + 1) * rows / n
		if lo == hi {
			continue
		}
		slabs = append(slabs, slab{
			lo:     lo,
			hi:     hi,
			owners: rt.smap.Owners(fmt.Sprintf("%s/slab%d", name, i)),
		})
	}
	return slabs
}

// Vars returns the variable names learned at bootstrap, sorted.
func (rt *Router) Vars() []string { return append([]string(nil), rt.varNames...) }
