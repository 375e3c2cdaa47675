package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mloc/internal/cluster/fault"
	"mloc/internal/cluster/health"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/obs"
	"mloc/internal/pfs"
	"mloc/internal/server"
)

// buildStore builds one small deterministic store; the same seed yields
// a bit-identical store on every "node".
func buildStore(t testing.TB, seed int64) *core.Store {
	t.Helper()
	return buildStoreCfg(t, seed, false)
}

// buildStoreCfg is buildStore with or without the hierarchical index.
func buildStoreCfg(t testing.TB, seed int64, hier bool) *core.Store {
	t.Helper()
	d := datagen.GTSLike(32, 32, seed)
	v, err := d.Var("phi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig([]int{8, 8})
	cfg.NumBins = 8
	cfg.SampleSize = 256
	cfg.HierarchicalIndex = hier
	fs := pfs.New(pfs.DefaultConfig())
	st, err := core.Build(fs, pfs.NewClock(), "node/v", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// dataNode is one simulated mlocd data node: the real server package
// behind a fault injector, exactly the composition -role=data uses.
type dataNode struct {
	ts   *httptest.Server
	inj  *fault.Injector
	addr string
}

func startDataNode(t testing.TB, stores map[string]*core.Store) *dataNode {
	t.Helper()
	return startDataNodeCfg(t, server.Config{Stores: stores})
}

func startDataNodeCfg(t testing.TB, cfg server.Config) *dataNode {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New()
	ts := httptest.NewServer(inj.Wrap(s.Handler()))
	t.Cleanup(ts.Close)
	return &dataNode{ts: ts, inj: inj, addr: strings.TrimPrefix(ts.URL, "http://")}
}

// startCluster launches n identically-built data nodes.
func startCluster(t testing.TB, n int) []*dataNode {
	t.Helper()
	nodes := make([]*dataNode, n)
	for i := range nodes {
		nodes[i] = startDataNode(t, map[string]*core.Store{
			"phi": buildStore(t, 1),
			"rho": buildStore(t, 2),
		})
	}
	return nodes
}

func startRouter(t testing.TB, nodes []*dataNode, mutate func(*Config)) (*Router, *httptest.Server) {
	t.Helper()
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.addr
	}
	cfg := Config{
		Nodes:        addrs,
		SlabsPerVar:  16,
		ShardTimeout: 5 * time.Second,
		Logf:         t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := bootstrapWithin(rt, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// bootstrapWithin runs Bootstrap bounded by d.
func bootstrapWithin(rt *Router, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return rt.Bootstrap(ctx)
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

// TestRoutedMatchesSingleNode is the core acceptance check: for a mix
// of query shapes, the routed scatter-gather result must be identical
// to what one data node answers directly.
func TestRoutedMatchesSingleNode(t *testing.T) {
	nodes := startCluster(t, 3)
	_, rts := startRouter(t, nodes, nil)

	bodies := []string{
		`{"var":"phi","vc":{"min":-1e30,"max":1e30}}`,
		`{"var":"phi","vc":{"min":9.5,"max":10.5}}`,
		`{"var":"phi","vc":{"min":-1e30,"max":1e30},"sc":{"lo":[3,5],"hi":[29,27]}}`,
		`{"var":"rho","vc":{"min":9,"max":11},"index_only":true}`,
		`{"var":"phi","vc":{"min":9.5,"max":10.5},"plod":2}`,
	}
	for _, body := range bodies {
		var direct server.ResultWire
		if code := postJSON(t, nodes[0].ts.URL+"/query", body, &direct); code != http.StatusOK {
			t.Fatalf("direct query %s: status %d", body, code)
		}
		var routed routedWire
		if code := postJSON(t, rts.URL+"/query", body, &routed); code != http.StatusOK {
			t.Fatalf("routed query %s: status %d", body, code)
		}
		if routed.Degraded {
			t.Fatalf("routed query %s degraded with all nodes healthy: %+v", body, routed.Shards)
		}
		if routed.MatchesTotal != direct.MatchesTotal || routed.Truncated != direct.Truncated {
			t.Fatalf("routed query %s: totals %d/%v, direct %d/%v",
				body, routed.MatchesTotal, routed.Truncated, direct.MatchesTotal, direct.Truncated)
		}
		if direct.MatchesTotal == 0 {
			t.Fatalf("query %s matched nothing; test is vacuous", body)
		}
		if !reflect.DeepEqual(routed.Matches, direct.Matches) {
			t.Fatalf("routed query %s: matches diverge from single node", body)
		}
	}
}

// TestRoutedTotalExactWhenShardsTruncate caps every data node's
// response below one shard's answer: the routed response lists only
// what the shards listed, flags the truncation, and still reports the
// match count a single uncapped node does — each shard's matches_total
// travels through the merge, not the length of its cut list.
func TestRoutedTotalExactWhenShardsTruncate(t *testing.T) {
	const nodeCap = 40 // below a single slab's 64 points
	nodes := make([]*dataNode, 2)
	for i := range nodes {
		nodes[i] = startDataNodeCfg(t, server.Config{
			Stores:     map[string]*core.Store{"phi": buildStore(t, 1)},
			MaxMatches: nodeCap,
		})
	}
	_, rts := startRouter(t, nodes, func(c *Config) { c.Replication = 1 })
	whole := startDataNode(t, map[string]*core.Store{"phi": buildStore(t, 1)})

	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`
	var direct server.ResultWire
	if code := postJSON(t, whole.ts.URL+"/query", body, &direct); code != http.StatusOK {
		t.Fatalf("direct query status %d", code)
	}
	var routed routedWire
	if code := postJSON(t, rts.URL+"/query", body, &routed); code != http.StatusOK {
		t.Fatalf("routed query status %d", code)
	}
	if len(routed.Shards) < 2 || routed.Degraded {
		t.Fatalf("want a healthy fan-out over two shards or more, got %+v", routed.Shards)
	}
	if direct.Truncated || direct.MatchesTotal <= nodeCap*len(routed.Shards) {
		t.Fatalf("single-node answer (%d matches, truncated=%v) does not exceed %d shards' caps; test is vacuous",
			direct.MatchesTotal, direct.Truncated, len(routed.Shards))
	}
	if routed.MatchesTotal != direct.MatchesTotal {
		t.Fatalf("routed matches_total = %d, single node counts %d", routed.MatchesTotal, direct.MatchesTotal)
	}
	if !routed.Truncated || len(routed.Matches) != nodeCap*len(routed.Shards) {
		t.Fatalf("routed response lists %d matches, truncated=%v; want %d and true",
			len(routed.Matches), routed.Truncated, nodeCap*len(routed.Shards))
	}
	valueAt := make(map[int64]float64, len(direct.Matches))
	for _, m := range direct.Matches {
		valueAt[m.Index] = m.Value
	}
	for i, m := range routed.Matches {
		if v, ok := valueAt[m.Index]; !ok || v != m.Value {
			t.Fatalf("routed match %d = %+v is not in the single-node answer", i, m)
		}
		if i > 0 && m.Index <= routed.Matches[i-1].Index {
			t.Fatalf("routed matches out of order at %d", i)
		}
	}
}

// TestKilledNodeYieldsDegradedPartial kills one of two replication-1
// nodes: its shards have nowhere to fail over, so the query must come
// back 200 with degraded:true, per-shard error detail, and the
// surviving shards' matches.
func TestKilledNodeYieldsDegradedPartial(t *testing.T) {
	nodes := startCluster(t, 2)
	rt, rts := startRouter(t, nodes, func(c *Config) { c.Replication = 1 })

	var direct server.ResultWire
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`
	if code := postJSON(t, nodes[0].ts.URL+"/query", body, &direct); code != http.StatusOK {
		t.Fatalf("direct query status %d", code)
	}

	if err := nodes[1].inj.Set(fault.Kill, 0); err != nil {
		t.Fatal(err)
	}
	var routed routedWire
	if code := postJSON(t, rts.URL+"/query", body, &routed); code != http.StatusOK {
		t.Fatalf("routed query status %d, want 200 partial", code)
	}
	if !routed.Degraded {
		t.Fatalf("killed node did not degrade the result: %+v", routed.Shards)
	}
	if len(routed.Matches) == 0 || routed.MatchesTotal >= direct.MatchesTotal {
		t.Fatalf("partial result has %d/%d matches, want nonzero and fewer than %d",
			len(routed.Matches), routed.MatchesTotal, direct.MatchesTotal)
	}
	failedShards := 0
	for _, sh := range routed.Shards {
		if !sh.OK {
			failedShards++
			if sh.Error == "" || sh.Node == "" {
				t.Fatalf("failed shard lacks error detail: %+v", sh)
			}
		}
	}
	if failedShards == 0 {
		t.Fatal("degraded response reports no failed shards")
	}
	// Surviving matches must be a subset of the full answer, in order.
	for _, m := range routed.Matches {
		if m.Value != valueAt(direct, m.Index) {
			t.Fatalf("partial match at %d = %v diverges from full answer", m.Index, m.Value)
		}
	}
	if rt.partials.Value() == 0 {
		t.Error("partial_results_total not incremented")
	}
}

func valueAt(res server.ResultWire, index int64) float64 {
	for _, m := range res.Matches {
		if m.Index == index {
			return m.Value
		}
	}
	return -1e308
}

// TestFailoverMasksKilledNode kills one of two replication-2 nodes:
// every shard has a surviving replica, so the answer must be complete,
// NOT degraded, with the failover counter advanced.
func TestFailoverMasksKilledNode(t *testing.T) {
	nodes := startCluster(t, 2)
	rt, rts := startRouter(t, nodes, func(c *Config) { c.Replication = 2 })

	var direct server.ResultWire
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`
	if code := postJSON(t, nodes[0].ts.URL+"/query", body, &direct); code != http.StatusOK {
		t.Fatalf("direct query status %d", code)
	}
	if err := nodes[0].inj.Set(fault.Kill, 0); err != nil {
		t.Fatal(err)
	}
	var routed routedWire
	if code := postJSON(t, rts.URL+"/query", body, &routed); code != http.StatusOK {
		t.Fatalf("routed query status %d", code)
	}
	if routed.Degraded {
		t.Fatalf("replicated cluster degraded despite a surviving replica: %+v", routed.Shards)
	}
	if !reflect.DeepEqual(routed.Matches, direct.Matches) {
		t.Fatal("failover answer diverges from single node")
	}
	if rt.failovers.Value() == 0 {
		t.Error("failovers_total not incremented")
	}
}

// TestHedgingFiresOnSlowNodes delays both nodes well past HedgeAfter:
// shards hedge to their replica, the result stays complete, and the
// hedge counter advances.
func TestHedgingFiresOnSlowNodes(t *testing.T) {
	nodes := startCluster(t, 2)
	rt, rts := startRouter(t, nodes, func(c *Config) {
		c.Replication = 2
		c.HedgeAfter = 10 * time.Millisecond
		c.SlabsPerVar = 4
	})
	for _, n := range nodes {
		if err := n.inj.Set(fault.Delay, 150*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	var routed routedWire
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`
	if code := postJSON(t, rts.URL+"/query", body, &routed); code != http.StatusOK {
		t.Fatalf("routed query status %d", code)
	}
	if routed.Degraded || routed.MatchesTotal == 0 {
		t.Fatalf("hedged query failed: degraded=%v matches=%d", routed.Degraded, routed.MatchesTotal)
	}
	if rt.hedges.Value() == 0 {
		t.Error("hedges_total not incremented")
	}
	hedged := false
	for _, sh := range routed.Shards {
		hedged = hedged || sh.Hedged
	}
	if !hedged {
		t.Error("no shard reported hedged")
	}
}

// TestCanceledClientEndsNodeCall: the replica call carries the
// client's request context, so a client that gives up ends the call on
// the data node too. The primary holds its request under a 10 s fault
// delay; a client that cancels after 100 ms must end that request
// within 2 s, not leave it to run out the delay.
func TestCanceledClientEndsNodeCall(t *testing.T) {
	// Both nodes' /query request contexts, as their handlers see them;
	// sized to the one call per node a routed query makes.
	seen := make(chan context.Context, 2)
	nodes := make([]*dataNode, 2)
	for i := range nodes {
		s, err := server.New(server.Config{Stores: map[string]*core.Store{"phi": buildStore(t, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.New()
		next := inj.Wrap(s.Handler())
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" {
				// net/http notices a closed connection only once the
				// request body is read, so read it ahead of the delay, as
				// a node busy with a parsed query would have.
				body, err := io.ReadAll(io.LimitReader(r.Body, server.MaxBodyBytes))
				if err != nil {
					t.Error(err)
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				seen <- r.Context()
			}
			next.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		nodes[i] = &dataNode{ts: ts, inj: inj, addr: strings.TrimPrefix(ts.URL, "http://")}
	}
	_, rts := startRouter(t, nodes, func(c *Config) { c.Replication = 1 })
	if err := nodes[0].inj.Set(fault.Delay, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rts.URL+"/query",
		strings.NewReader(`{"var":"phi","vc":{"min":-1e30,"max":1e30}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("query through a 10 s delay answered %d within 100 ms", resp.StatusCode)
	}
	deadline := time.After(2 * time.Second)
	for range nodes {
		select {
		case nodeCtx := <-seen:
			select {
			case <-nodeCtx.Done():
			case <-deadline:
				t.Fatal("a node's request context was still live 2 s after the client canceled")
			}
		case <-deadline:
			t.Fatal("the router did not call both nodes")
		}
	}
}

// TestCorruptPayloadDegrades corrupts one replication-1 node's
// responses: its shards fail decode and the result degrades rather
// than propagating damaged matches.
func TestCorruptPayloadDegrades(t *testing.T) {
	nodes := startCluster(t, 2)
	_, rts := startRouter(t, nodes, func(c *Config) { c.Replication = 1 })
	if err := nodes[0].inj.Set(fault.Corrupt, 0); err != nil {
		t.Fatal(err)
	}
	var routed routedWire
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`
	if code := postJSON(t, rts.URL+"/query", body, &routed); code != http.StatusOK {
		t.Fatalf("routed query status %d", code)
	}
	if !routed.Degraded {
		t.Fatalf("corrupt node did not degrade the result: %+v", routed.Shards)
	}
	found := false
	for _, sh := range routed.Shards {
		if !sh.OK && strings.Contains(sh.Error, "undecodable") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shard reports a decode failure: %+v", routed.Shards)
	}
}

// TestAllNodesDeadFails kills every node: with no shard able to
// answer, the router must return 502, not an empty 200.
func TestAllNodesDeadFails(t *testing.T) {
	nodes := startCluster(t, 2)
	rt, rts := startRouter(t, nodes, nil)
	for _, n := range nodes {
		if err := n.inj.Set(fault.Kill, 0); err != nil {
			t.Fatal(err)
		}
	}
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`
	if code := postJSON(t, rts.URL+"/query", body, nil); code != http.StatusBadGateway {
		t.Fatalf("all-dead query status %d, want 502", code)
	}
	if rt.Stats()["queries_failed"] == 0 {
		t.Error("failed outcome not counted")
	}
}

// TestPrunedQueryAnswersEmpty sends a spatial constraint that touches
// no rows: the router answers locally with an empty ok result and no
// fan-out at all.
func TestPrunedQueryAnswersEmpty(t *testing.T) {
	nodes := startCluster(t, 2)
	rt, rts := startRouter(t, nodes, nil)
	var routed routedWire
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30},"sc":{"lo":[5,0],"hi":[5,32]}}`
	if code := postJSON(t, rts.URL+"/query", body, &routed); code != http.StatusOK {
		t.Fatalf("pruned query status %d", code)
	}
	if routed.Degraded || routed.MatchesTotal != 0 || len(routed.Shards) != 0 {
		t.Fatalf("pruned query answered %+v, want empty ok result", routed)
	}
	if rt.fanout.Value() != 0 {
		t.Errorf("fanout_total = %d after a fully pruned query", rt.fanout.Value())
	}
}

// TestRouterRejections covers the non-query outcomes: bad bodies,
// unknown variables, and draining.
func TestRouterRejections(t *testing.T) {
	nodes := startCluster(t, 1)
	rt, rts := startRouter(t, nodes, nil)

	if code := postJSON(t, rts.URL+"/query", `{"var":"ghost"}`, nil); code != http.StatusNotFound {
		t.Fatalf("unknown var status %d, want 404", code)
	}
	if code := postJSON(t, rts.URL+"/query", `{nope`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad body status %d, want 400", code)
	}
	// rows belongs to the router↔node hop; a client may not set it, even
	// to ranges a data node would accept.
	if code := postJSON(t, rts.URL+"/query", `{"var":"phi","rows":[[0,8]]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("client rows status %d, want 400", code)
	}
	if code := postJSON(t, nodes[0].ts.URL+"/query", `{"var":"phi","rows":[[0,8]]}`, nil); code != http.StatusOK {
		t.Fatalf("node rows status %d, want 200", code)
	}
	rt.SetDraining(true)
	resp, err := http.Post(rts.URL+"/query", "application/json", strings.NewReader(`{"var":"phi"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining query: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if code := getJSON(t, rts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", code)
	}
	rt.SetDraining(false)
	if code := getJSON(t, rts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", code)
	}
}

// TestIntrospectionEndpoints exercises /vars, /stats, /cluster/nodes,
// and a lint-clean /metrics on one router wired with a health checker.
func TestIntrospectionEndpoints(t *testing.T) {
	nodes := startCluster(t, 2)
	addrs := []string{nodes[0].addr, nodes[1].addr}
	reg := obs.NewRegistry()
	// No probe loop is started, so nodes stay in their optimistic up
	// state; the router still consumes the checker's snapshot.
	hc, err := health.New(health.Config{Nodes: addrs})
	if err != nil {
		t.Fatal(err)
	}
	hc.Instrument(reg)
	rt, rts := startRouter(t, nodes, func(c *Config) {
		c.Registry = reg
		c.Health = hc
	})

	var vars []server.VarWire
	if code := getJSON(t, rts.URL+"/vars", &vars); code != http.StatusOK {
		t.Fatalf("/vars status %d", code)
	}
	if len(vars) != 2 || vars[0].Var != "phi" || vars[1].Var != "rho" {
		t.Fatalf("/vars = %+v", vars)
	}

	var routed routedWire
	if code := postJSON(t, rts.URL+"/query", `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`, &routed); code != http.StatusOK {
		t.Fatalf("query status %d", code)
	}

	var stats map[string]int64
	if code := getJSON(t, rts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	if stats["queries_total"] != 1 || stats["queries_ok"] != 1 || stats["nodes"] != 2 || stats["nodes_up"] != 2 {
		t.Fatalf("/stats = %v", stats)
	}
	if stats["fanout_total"] == 0 {
		t.Fatalf("/stats fanout_total = 0 after a fanned-out query")
	}

	var topo topologyWire
	if code := getJSON(t, rts.URL+"/cluster/nodes", &topo); code != http.StatusOK {
		t.Fatalf("/cluster/nodes status %d", code)
	}
	if len(topo.Nodes) != 2 || topo.Replication != 2 || len(topo.Vars) != 2 {
		t.Fatalf("/cluster/nodes = %+v", topo)
	}
	slabs := 0
	for _, n := range topo.Nodes {
		slabs += n.Slabs
		if n.Health == nil || !n.Health.Up {
			t.Fatalf("node %s missing health view: %+v", n.Node, n)
		}
	}
	if want := len(rt.vars["phi"].slabs) + len(rt.vars["rho"].slabs); slabs != want {
		t.Fatalf("primary slab counts sum to %d, want %d", slabs, want)
	}

	resp, err := http.Get(rts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	payload := string(raw)
	if problems := obs.Lint(payload, true); len(problems) != 0 {
		t.Fatalf("/metrics lint problems: %v", problems)
	}
	for _, want := range []string{"mloc_cluster_queries_total", "mloc_cluster_node_up", "mloc_cluster_shard_latency_seconds"} {
		if !strings.Contains(payload, want) {
			t.Fatalf("/metrics missing family %s", want)
		}
	}

	if code := getJSON(t, rts.URL+"/debug/traces", nil); code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
}

// runConcurrently posts body to url n times from workers goroutines
// through hc, failing the test on any non-200 answer.
func runConcurrently(t *testing.T, hc *http.Client, url, body string, n, workers int) {
	t.Helper()
	jobs := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		jobs <- struct{}{}
	}
	close(jobs)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() { // one closed-loop client; joined by wg.Wait below
			defer wg.Done()
			for range jobs {
				resp, err := hc.Post(url, "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					errs <- err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("routed query: %v", err)
	}
}

// TestNodeCallsReuseConnections: with no Client configured, node calls
// share one pooled transport that keeps at least as many idle
// connections per node as there are calls in flight, and every node
// body is read to its end, so 50 routed queries from 4 concurrent
// clients dial each node at most 4 times — once per call that can be in
// flight.
func TestNodeCallsReuseConnections(t *testing.T) {
	nodes := startCluster(t, 2)
	addrs := []string{nodes[0].addr, nodes[1].addr}
	rt, err := New(Config{Nodes: addrs, Replication: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := rt.cfg.Client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default node client transport is %T, want *http.Transport", rt.cfg.Client.Transport)
	}
	// With no cap a transport may race a spare dial against a connection
	// that is being released, which makes the count nondeterministic. The
	// cap does not make connections reusable: one the idle pool cannot
	// keep, or whose body was not read to its end, is still re-dialled.
	tr.MaxConnsPerHost = nodeConnsPerHost
	var mu sync.Mutex
	dials := map[string]int{}
	dial := tr.DialContext
	tr.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		mu.Lock()
		dials[addr]++
		mu.Unlock()
		return dial(ctx, network, addr)
	}
	if err := bootstrapWithin(rt, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	runConcurrently(t, http.DefaultClient, rts.URL+"/query", `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`, 50, nodeConnsPerHost)
	mu.Lock()
	defer mu.Unlock()
	for _, a := range addrs {
		if dials[a] == 0 || dials[a] > nodeConnsPerHost {
			t.Errorf("node %s dialled %d times for 50 queries at concurrency %d, want 1 to %[3]d", a, dials[a], nodeConnsPerHost)
		}
	}
}

// TestRoutedQueriesLeaveNoGoroutines: once the clients' idle
// connections are closed, a router that has answered routed queries is
// back to the goroutines it started with — what a routed workload ends
// with beyond that is idle keep-alive connections (a read and a write
// loop per connection), not leaked hedges, replica attempts or merges.
func TestRoutedQueriesLeaveNoGoroutines(t *testing.T) {
	nodes := startCluster(t, 2)
	rt, rts := startRouter(t, nodes, func(c *Config) {
		c.Replication = 2
		c.HedgeAfter = time.Millisecond // losing hedges must exit too
	})
	hc := &http.Client{Transport: &http.Transport{}}
	rt.cfg.Client.CloseIdleConnections()
	start := runtime.NumGoroutine()

	runConcurrently(t, hc, rts.URL+"/query", `{"var":"phi","vc":{"min":9.5,"max":10.5}}`, 40, 4)
	hc.CloseIdleConnections()
	rt.cfg.Client.CloseIdleConnections()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("%d goroutines 1 s after the queries drained, %d before them", n, start)
	}
}

// TestBootstrapRejectsMismatchedNodes: nodes built from different
// store specs must fail bootstrap loudly instead of serving garbage.
func TestBootstrapRejectsMismatchedNodes(t *testing.T) {
	a := startDataNode(t, map[string]*core.Store{"phi": buildStore(t, 1)})
	b := startDataNode(t, map[string]*core.Store{"phi": buildStore(t, 1), "rho": buildStore(t, 2)})
	rt, err := New(Config{Nodes: []string{a.addr, b.addr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	err = bootstrapWithin(rt, 3*time.Second)
	if err == nil || !strings.Contains(err.Error(), "identical store specs") {
		t.Fatalf("bootstrap error = %v, want store-spec mismatch", err)
	}
}

// TestVarsDecodeBounded: the bootstrap /vars decode is capped at 1 MiB,
// so a corrupt or hostile node streaming an enormous listing errors
// cleanly instead of OOMing the router.
func TestVarsDecodeBounded(t *testing.T) {
	// Stream a syntactically valid /vars body whose whitespace padding
	// pushes it past the 1 MiB cap; the truncated decode must fail.
	pad := strings.Repeat(" ", 2<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "[")
		io.WriteString(w, pad)
		io.WriteString(w, `{"var":"phi","shape":[32,32]}]`)
	}))
	t.Cleanup(ts.Close)

	rt := &Router{cfg: Config{Client: &http.Client{}}}
	_, err := rt.fetchVarsOnce(context.Background(), ts.URL)
	if err == nil {
		t.Fatal("fetchVarsOnce decoded a >1 MiB /vars body without error")
	}
	if !strings.Contains(err.Error(), "decoding") {
		t.Fatalf("fetchVarsOnce error = %v, want a decoding error from the truncated body", err)
	}

	// A listing under the cap still decodes.
	small := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `[{"var":"phi","shape":[32,32]}]`)
	}))
	t.Cleanup(small.Close)
	vars, err := rt.fetchVarsOnce(context.Background(), small.URL)
	if err != nil {
		t.Fatalf("fetchVarsOnce on a small body: %v", err)
	}
	if len(vars) != 1 || vars[0].Var != "phi" {
		t.Fatalf("fetchVarsOnce = %+v, want one phi entry", vars)
	}
}

// TestBootstrapRejectsInvalidShapes: a /vars listing whose shape no
// store could have (no dimensions, a negative or a zero extent) fails
// bootstrap with an error naming the node, instead of panicking in
// computeSlabs or bootstrapping a variable with no slabs.
func TestBootstrapRejectsInvalidShapes(t *testing.T) {
	for _, shape := range []string{`[]`, `[-5,16]`, `[0,16]`} {
		t.Run(shape, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				io.WriteString(w, `[{"var":"phi","shape":`+shape+`,"bins":8,"mode":"col"}]`)
			}))
			t.Cleanup(ts.Close)
			node := strings.TrimPrefix(ts.URL, "http://")
			rt, err := New(Config{Nodes: []string{node}, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			err = bootstrapWithin(rt, 300*time.Millisecond)
			if want := "router: " + node + " /vars: phi: grid: "; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("bootstrap error = %v, want it to contain %q", err, want)
			}
		})
	}
}

// TestBootstrapSlabsBoundedByConfig: the slab count is the router's
// SlabsPerVar clamped to the variable's row count, from both sides. A
// node whose /vars reports 2^20 rows bootstraps to SlabsPerVar slabs,
// and a 4-row variable under the largest SlabsPerVar to 4 slabs, with
// no room kept for more.
func TestBootstrapSlabsBoundedByConfig(t *testing.T) {
	for _, tc := range []struct {
		rows, slabsPerVar, want int
	}{
		{1 << 20, 16, 16},
		{4, 2 * server.MaxWireRows, 4},
	} {
		shape := fmt.Sprintf(`[%d,4]`, tc.rows)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `[{"var":"phi","shape":`+shape+`,"bins":8,"mode":"col"}]`)
		}))
		t.Cleanup(ts.Close)
		rt, err := New(Config{Nodes: []string{strings.TrimPrefix(ts.URL, "http://")}, SlabsPerVar: tc.slabsPerVar, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := bootstrapWithin(rt, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if slabs := rt.vars["phi"].slabs; len(slabs) != tc.want || cap(slabs) != tc.want {
			t.Errorf("%d rows, SlabsPerVar %d: %d slabs (cap %d), want %d",
				tc.rows, tc.slabsPerVar, len(slabs), cap(slabs), tc.want)
		}
	}
}

// fakeNode answers /vars with one 32×32 variable and every /query with
// the given body.
func fakeNode(t *testing.T, answer string) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/vars" {
			io.WriteString(w, `[{"var":"phi","shape":[32,32],"bins":8,"mode":"col"}]`)
			return
		}
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, answer)
	}))
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// TestMergeNotSizedByPeerTotal: a node's matches_total is a count it
// claims, not matches it sent. A node that lists one match under a
// matches_total of 2^40 must get that total passed through, and the
// router must size nothing by it.
func TestMergeNotSizedByPeerTotal(t *testing.T) {
	const total = int64(1) << 40
	node := fakeNode(t, fmt.Sprintf(`{"var":"phi","matches":[{"index":5,"value":1.5}],"matches_total":%d,"truncated":true}`, total))
	rt, err := New(Config{Nodes: []string{node}, SlabsPerVar: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := bootstrapWithin(rt, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var res routedWire
	code := postJSON(t, ts.URL+"/query", `{"var":"phi"}`, &res)
	runtime.ReadMemStats(&after)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if res.MatchesTotal != int(total) || len(res.Matches) != 1 || !res.Truncated {
		t.Fatalf("matches_total %d, %d listed, truncated %v; want %d, 1, true",
			res.MatchesTotal, len(res.Matches), res.Truncated, total)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("one routed query allocated %d bytes", got)
	}
}

// seriesCount is the number of samples a /metrics scrape lists.
func seriesCount(t *testing.T, base string) int {
	t.Helper()
	n := 0
	for _, line := range strings.Split(metricsPayload(t, base), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// TestRouterLabelsBoundedAgainstVarNames: every metric label value comes
// from a finite set (config, endpoint names, outcome classes), never
// from a request. After the first of many queries naming distinct
// variables, the router's /metrics lists no new series.
func TestRouterLabelsBoundedAgainstVarNames(t *testing.T) {
	_, ts := startRouter(t, startCluster(t, 1), nil)
	postJSON(t, ts.URL+"/query", `{"var":"v0"}`, nil)
	want := seriesCount(t, ts.URL)
	for i := 1; i <= 20; i++ {
		postJSON(t, ts.URL+"/query", fmt.Sprintf(`{"var":"v%d"}`, i), nil)
	}
	if got := seriesCount(t, ts.URL); got != want {
		t.Fatalf("/metrics lists %d series after 20 distinct var names, %d after the first", got, want)
	}
}

// TestBootstrapRejectsEmptyListing: a node that serves no variables
// fails bootstrap, instead of leaving a router that answers 404 to
// every query.
func TestBootstrapRejectsEmptyListing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `[]`)
	}))
	t.Cleanup(ts.Close)
	node := strings.TrimPrefix(ts.URL, "http://")
	rt, err := New(Config{Nodes: []string{node}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	err = bootstrapWithin(rt, 300*time.Millisecond)
	if want := node + " serves no variables"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("bootstrap error = %v, want it to contain %q", err, want)
	}
}
