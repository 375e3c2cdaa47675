package router

// Tests for the router's distributed-observability surfaces: remote
// span grafting into one cross-node trace, the routed query log, and
// the cluster SLO / exemplar metrics.

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"mloc/internal/obs"
)

// postTracedRouted posts a routed query with the trace-context header
// set, so the response envelope carries the router's grafted tree.
func postTracedRouted(t *testing.T, url, body string) routedWire {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("traced routed query status %d: %s", resp.StatusCode, b)
	}
	var out routedWire
	decodeBody(t, resp.Body, &out)
	return out
}

func decodeBody(t *testing.T, r io.Reader, out any) {
	t.Helper()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
}

// graftedSubtrees walks a routed trace and returns the remote "query"
// roots grafted under shard spans, keyed by their node attribute.
func graftedSubtrees(t *testing.T, root *obs.SpanWire) map[string][]*obs.SpanWire {
	t.Helper()
	subs := make(map[string][]*obs.SpanWire)
	for _, sh := range root.Children {
		if sh.Name != "shard" {
			continue
		}
		for _, c := range sh.Children {
			if c.Name != "query" {
				continue
			}
			node := ""
			for _, a := range c.Attrs {
				if a.Key == "node" {
					node, _ = a.Value.(string)
				}
			}
			if node == "" {
				t.Fatalf("grafted subtree lacks a node attribute: %+v", c.Attrs)
			}
			subs[node] = append(subs[node], c)
		}
	}
	return subs
}

// TestRoutedTraceGraftInvariant is the cross-node extension of the
// single-node span-sum invariant: one routed ranks=1 query yields one
// trace on the router whose shard spans each carry the answering data
// node's full span subtree (fetch/decode/filter leaves, node= attr),
// the root's own virtual time equals the reported merged latency, and
// the per-shard subtree sums bound that merged total from both sides
// (shards execute concurrently, so the client is billed the
// component-wise maximum, never less than the slowest shard and never
// more than the serial sum).
func TestRoutedTraceGraftInvariant(t *testing.T) {
	nodes := startCluster(t, 2)
	rt, rts := startRouter(t, nodes, func(c *Config) { c.Replication = 1 })

	out := postTracedRouted(t, rts.URL, `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`)
	if out.Degraded {
		t.Fatalf("query degraded with all nodes healthy: %+v", out.Shards)
	}
	if len(out.Trace) == 0 {
		t.Fatal("traced routed query returned no span tree")
	}
	w, err := obs.DecodeTraceWire(out.Trace, 0)
	if err != nil {
		t.Fatalf("decode routed trace: %v", err)
	}
	if w.Root.Name != "route" {
		t.Errorf("routed trace root %q, want route", w.Root.Name)
	}

	subs := graftedSubtrees(t, w.Root)
	for _, n := range nodes {
		if len(subs[n.addr]) == 0 {
			t.Errorf("no span subtree grafted from live node %s", n.addr)
		}
	}
	maxShard, sumShards := 0.0, 0.0
	for node, trees := range subs {
		for _, tree := range trees {
			for _, leaf := range []string{"fetch", "decode", "filter"} {
				if !wireHasSpan(tree, leaf) {
					t.Errorf("subtree from %s missing %s span", node, leaf)
				}
			}
			v := obs.SumVirtWire(tree)
			if v <= 0 {
				t.Errorf("subtree from %s carries no virtual time", node)
			}
			sumShards += v
			if v > maxShard {
				maxShard = v
			}
		}
	}
	// Root virt is the merged total the client was billed.
	if math.Abs(w.Root.VirtS-out.Time.Total) > 1e-9 {
		t.Errorf("root virt %v != reported total %v", w.Root.VirtS, out.Time.Total)
	}
	const eps = 1e-9
	if out.Time.Total < maxShard-eps || out.Time.Total > sumShards+eps {
		t.Errorf("merged total %v outside [slowest shard %v, serial sum %v]",
			out.Time.Total, maxShard, sumShards)
	}

	if rt.grafts.Value() == 0 {
		t.Error("trace_grafts_total not incremented")
	}
	if rt.graftErrors.Value() != 0 {
		t.Errorf("trace_graft_errors_total = %d on healthy responses", rt.graftErrors.Value())
	}

	// The grafted tree is retained on the router: /debug/traces?id= must
	// serve the same cross-node tree mlocctl trace renders.
	code := getJSON(t, rts.URL+"/debug/traces?id="+strconv.FormatUint(out.TraceID, 10), nil)
	if code != http.StatusOK {
		t.Errorf("/debug/traces?id=%d status %d", out.TraceID, code)
	}
}

// TestRoutedTraceVirtExactSingleShard pins the exact cross-node
// equality: with one data node every slab coalesces into a single
// shard call, the merge is the identity, and the grafted subtree's
// virtual seconds equal the reported total to the last bit.
func TestRoutedTraceVirtExactSingleShard(t *testing.T) {
	nodes := startCluster(t, 1)
	_, rts := startRouter(t, nodes, func(c *Config) { c.Replication = 1 })

	out := postTracedRouted(t, rts.URL, `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`)
	w, err := obs.DecodeTraceWire(out.Trace, 0)
	if err != nil {
		t.Fatalf("decode routed trace: %v", err)
	}
	subs := graftedSubtrees(t, w.Root)
	if len(subs) != 1 || len(subs[nodes[0].addr]) != 1 {
		t.Fatalf("one-node cluster grafted %d subtrees, want exactly 1", len(subs))
	}
	got := obs.SumVirtWire(subs[nodes[0].addr][0])
	if math.Abs(got-out.Time.Total) > 1e-9 {
		t.Errorf("grafted subtree virt %v != reported total %v", got, out.Time.Total)
	}
	if math.Abs(w.Root.VirtS-out.Time.Total) > 1e-9 {
		t.Errorf("root virt %v != reported total %v", w.Root.VirtS, out.Time.Total)
	}
}

// TestTracePropagationDisabled: with propagation off the router still
// traces its own fan-out, but no remote subtree is requested or
// grafted and the response envelope carries no tree payload from the
// data nodes.
func TestTracePropagationDisabled(t *testing.T) {
	nodes := startCluster(t, 2)
	rt, rts := startRouter(t, nodes, func(c *Config) {
		c.Replication = 1
		c.DisableTracePropagation = true
	})
	out := postTracedRouted(t, rts.URL, `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`)
	if len(out.Trace) == 0 {
		t.Fatal("router should still serve its own trace envelope")
	}
	w, err := obs.DecodeTraceWire(out.Trace, 0)
	if err != nil {
		t.Fatalf("decode routed trace: %v", err)
	}
	if subs := graftedSubtrees(t, w.Root); len(subs) != 0 {
		t.Errorf("propagation disabled but %d subtrees were grafted", len(subs))
	}
	if rt.grafts.Value() != 0 {
		t.Errorf("trace_grafts_total = %d with propagation disabled", rt.grafts.Value())
	}
}

func TestRouterQueryLogAndSLO(t *testing.T) {
	nodes := startCluster(t, 2)
	objs, err := obs.ParseSLOObjectives("1ns,1h")
	if err != nil {
		t.Fatal(err)
	}
	_, rts := startRouter(t, nodes, func(c *Config) { c.SLOObjectives = objs })

	out := postTracedRouted(t, rts.URL, `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`)

	var recs []obs.QueryRecord
	if code := getJSON(t, rts.URL+"/debug/querylog", &recs); code != http.StatusOK {
		t.Fatalf("querylog status %d", code)
	}
	if len(recs) != 1 {
		t.Fatalf("querylog has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Var != "phi" || rec.Outcome != "ok" || rec.Degraded {
		t.Errorf("record %+v lacks var/outcome", rec)
	}
	if rec.Shards == 0 {
		t.Error("record lacks the shard count")
	}
	if rec.Matches != out.MatchesTotal || rec.TraceID != out.TraceID {
		t.Errorf("record matches/trace %d/%d != response %d/%d",
			rec.Matches, rec.TraceID, out.MatchesTotal, out.TraceID)
	}
	if rec.BytesDecoded <= 0 || rec.VirtS <= 0 || rec.Selectivity == "" || rec.Store == "" {
		t.Errorf("record %+v lacks cost accounting", rec)
	}

	// Filters share the data-node contract: non-matching var is empty,
	// malformed or negative min_latency is a 400.
	recs = nil
	if code := getJSON(t, rts.URL+"/debug/querylog?var=zeta", &recs); code != http.StatusOK || len(recs) != 0 {
		t.Errorf("var filter: status %d, %d records", code, len(recs))
	}
	if code := getJSON(t, rts.URL+"/debug/querylog?min_latency=zebra", nil); code != http.StatusBadRequest {
		t.Errorf("bad min_latency status %d", code)
	}

	payload := metricsPayload(t, rts.URL)
	if v := sampleValue(t, payload, `mloc_slo_query_breach_total{objective="1ns"}`); v != 1 {
		t.Errorf("1ns breach counter = %v, want 1", v)
	}
	if v := sampleValue(t, payload, `mloc_slo_query_ok_total{objective="1h0m0s"}`); v != 1 {
		t.Errorf("1h ok counter = %v, want 1", v)
	}
	wantEx := `# {trace_id="` + strconv.FormatUint(out.TraceID, 10) + `"}`
	found := false
	for _, line := range strings.Split(payload, "\n") {
		if strings.HasPrefix(line, "mloc_cluster_query_latency_seconds_bucket") && strings.Contains(line, wantEx) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no routed latency bucket carries exemplar %s", wantEx)
	}
	if probs := obs.Lint(payload, true); len(probs) != 0 {
		t.Errorf("router exposition with exemplars fails lint: %v", probs)
	}
	recs = nil
	if code := getJSON(t, rts.URL+"/debug/querylog", &recs); code != http.StatusOK {
		t.Fatalf("querylog status %d", code)
	}
	if len(recs) != 1 {
		t.Errorf("query log holds %d records, want 1", len(recs))
	}
}

// TestRouterQueryLogRecordsTotalFailure: an all-shards-failed query is
// still logged (outcome error, degraded) so operators can find it.
func TestRouterQueryLogRecordsTotalFailure(t *testing.T) {
	nodes := startCluster(t, 1)
	_, rts := startRouter(t, nodes, func(c *Config) {
		c.Replication = 1
		c.ShardTimeout = 2 * time.Second
	})
	nodes[0].ts.Close()
	if code := postJSON(t, rts.URL+"/query", `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`, nil); code != http.StatusBadGateway {
		t.Fatalf("all-dead query status %d, want 502", code)
	}
	var recs []obs.QueryRecord
	if code := getJSON(t, rts.URL+"/debug/querylog", &recs); code != http.StatusOK {
		t.Fatalf("querylog status %d", code)
	}
	if len(recs) != 1 || recs[0].Outcome != "error" || !recs[0].Degraded {
		t.Fatalf("failed query log = %+v, want one error record", recs)
	}
}

// metricsPayload fetches the router's /metrics as text.
func metricsPayload(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// sampleValue extracts one sample's value from an exposition payload.
func sampleValue(t *testing.T, payload, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(payload)
	if m == nil {
		t.Fatalf("sample %s not found in exposition", sample)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %s value %q: %v", sample, m[1], err)
	}
	return v
}

// wireHasSpan reports whether a wire subtree contains a span name.
func wireHasSpan(w *obs.SpanWire, name string) bool {
	if w == nil {
		return false
	}
	if w.Name == name {
		return true
	}
	for _, c := range w.Children {
		if wireHasSpan(c, name) {
			return true
		}
	}
	return false
}

// BenchmarkDistTraceOverhead measures a routed query with remote span
// propagation off vs on: the delta is the full distributed-tracing
// tax (data-node serialization, wire decode, graft).
func BenchmarkDistTraceOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		off  bool
	}{{"off", true}, {"on", false}} {
		b.Run(mode.name, func(b *testing.B) {
			nodes := startCluster(b, 2)
			_, rts := startRouter(b, nodes, func(c *Config) {
				c.Replication = 1
				c.DisableTracePropagation = mode.off
			})
			body := `{"var":"phi","vc":{"min":9.5,"max":10.5},"ranks":1}`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := http.Post(rts.URL+"/query", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("query status %d", resp.StatusCode)
				}
			}
		})
	}
}
