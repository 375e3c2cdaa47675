package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"mloc/internal/obs"
	"mloc/internal/query"
	"mloc/internal/server"
)

// shardDetail is the per-shard report attached to routed responses.
type shardDetail struct {
	// Node is the data node that answered (or the primary owner when
	// every replica failed).
	Node string `json:"node"`
	// Rows lists the half-open dimension-0 row ranges the node call
	// covered, as "[lo,hi)" runs.
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

// prepare plans the request's shard calls; the returned Run scatters
// them and merges what came back.
func (rt *Router) prepare(wire *server.QueryWire) (server.Prepared, int, error) {
	if wire.Rows != nil {
		return server.Prepared{}, http.StatusBadRequest, fmt.Errorf("router: rows is set by the router on node calls, not by clients")
	}
	vi, ok := rt.vars[wire.Var]
	if !ok {
		return server.Prepared{}, http.StatusNotFound, fmt.Errorf("router: unknown variable %q", wire.Var)
	}
	calls, err := rt.plan(vi, wire)
	if err != nil {
		return server.Prepared{}, http.StatusBadRequest, err
	}
	run := func(ctx context.Context, root *obs.Span) server.Answer {
		return rt.gather(ctx, root, wire.Var, calls)
	}
	return server.Prepared{Store: vi.mode, Shape: vi.shape, Run: run}, 0, nil
}

// gather scatters the planned calls, merges the shards that answered,
// and annotates the answer with the per-shard report. When every shard
// failed there is nothing to merge and the answer is a 502.
func (rt *Router) gather(ctx context.Context, root *obs.Span, name string, calls []*shardCall) server.Answer {
	root.SetInt("fanout", int64(len(calls)))
	outcomes := rt.scatter(ctx, calls)

	parts := make([]*query.Result, 0, len(outcomes))
	details := make([]shardDetail, 0, len(outcomes))
	failed := 0
	for _, o := range outcomes {
		d := shardDetail{
			Node:      o.node,
			Rows:      o.call.rowsString(),
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
	ans := server.Answer{Shards: len(outcomes), Degraded: failed > 0}
	if len(outcomes) > 0 && failed == len(outcomes) {
		root.SetBool("failed", true)
		ans.Status = http.StatusBadGateway
		ans.Err = fmt.Errorf("router: all %d shards failed; first: %s", failed, details[0].Error)
		return ans
	}
	ans.Extra, ans.Err = json.Marshal(routedAnnotations{Degraded: ans.Degraded, Shards: details})
	if ans.Err != nil {
		ans.Status = http.StatusInternalServerError
		return ans
	}
	// Each shard reports its full match count, so the merged total is
	// exact even where a shard (or the response cap) cut its list short.
	ans.Result = query.MergeResults(parts)
	// The grafted remote subtrees carry the per-node cost detail; the
	// root carries the merged (cross-shard MaxWith) virtual total — the
	// simulated latency the client is actually billed, since shards ran
	// concurrently.
	root.AddVirt(ans.Result.Time.Total())
	if failed > 0 {
		rt.partials.Inc()
		root.SetBool("degraded", true)
		rt.Logf("router: degraded result for var=%s: %d/%d shards failed", name, failed, len(outcomes))
	}
	return ans
}

func (rt *Router) listVars() []server.VarWire {
	vars := make([]server.VarWire, 0, len(rt.varNames))
	for _, name := range rt.varNames {
		vi := rt.vars[name]
		vars = append(vars, server.VarWire{Var: name, Shape: vi.shape, Bins: vi.bins, Mode: vi.mode})
	}
	return vars
}

// stats adds the routing counters and the topology to /stats.
func (rt *Router) stats(stats map[string]int64) {
	stats["fanout_total"] = rt.fanout.Value()
	stats["hedges_total"] = rt.hedges.Value()
	stats["failovers_total"] = rt.failovers.Value()
	stats["partial_results_total"] = rt.partials.Value()
	stats["nodes"] = int64(len(rt.cfg.Nodes))
	stats["vars"] = int64(len(rt.varNames))
	if rt.cfg.Health != nil {
		stats["nodes_up"] = int64(rt.cfg.Health.UpCount())
	}
}

// unhealthy fails /healthz while the checker sees no live data node.
func (rt *Router) unhealthy() string {
	if rt.cfg.Health != nil && rt.cfg.Health.UpCount() == 0 {
		return "no data nodes are up"
	}
	return ""
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
