package server

// Tests for the distributed-observability surfaces added with cluster
// tracing: the X-Mloc-Trace response envelope, /debug/querylog, and
// the SLO / exemplar metrics.

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"mloc/internal/core"
	"mloc/internal/obs"
)

// postTracedQuery posts a query with the trace-context header set.
func postTracedQuery(t *testing.T, url, body string) ResultWire {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("traced query status %d: %s", resp.StatusCode, b)
	}
	var out ResultWire
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestQueryTraceEnvelope(t *testing.T) {
	st, _, _ := buildStore(t, 3, nil)
	_, ts := newTestServer(t, Config{Stores: map[string]*core.Store{"phi": st}})
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`

	// Without the header the envelope must not carry a span tree.
	resp, plain := postQuery(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if len(plain.Trace) != 0 {
		t.Fatalf("untraced request got a %d-byte trace payload", len(plain.Trace))
	}

	out := postTracedQuery(t, ts.URL, body)
	if len(out.Trace) == 0 {
		t.Fatal("traced request returned no span tree")
	}
	w, err := obs.DecodeTraceWire(out.Trace, 0)
	if err != nil {
		t.Fatalf("decode envelope trace: %v", err)
	}
	if w.Root.Name != "query" {
		t.Errorf("envelope root span %q, want query", w.Root.Name)
	}
	for _, leaf := range []string{"fetch", "decode", "filter"} {
		if !wireHasSpan(w.Root, leaf) {
			t.Errorf("envelope trace missing %s span", leaf)
		}
	}
	// Single-rank query: the tree's virtual seconds are exactly the
	// reported virtual latency — the invariant the router's graft
	// extends across nodes.
	if got := obs.SumVirtWire(w.Root); math.Abs(got-out.Time.Total) > 1e-9 {
		t.Errorf("envelope tree virt %v != reported total %v", got, out.Time.Total)
	}
}

// wireHasSpan reports whether the wire subtree contains a span name.
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

func TestQueryLogEndpoint(t *testing.T) {
	st, _, _ := buildStore(t, 5, nil)
	_, ts := newTestServer(t, Config{Stores: map[string]*core.Store{"phi": st}})
	resp, out := postQuery(t, ts, `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	lresp, body := getBody(t, ts, "/debug/querylog")
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("querylog status %d", lresp.StatusCode)
	}
	var recs []obs.QueryRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil {
		t.Fatalf("querylog decode: %v\n%s", err, body)
	}
	if len(recs) != 1 {
		t.Fatalf("querylog has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Var != "phi" || rec.Outcome != "ok" {
		t.Errorf("record %+v lacks var/outcome", rec)
	}
	if rec.Store == "" || rec.Selectivity == "" {
		t.Errorf("record %+v lacks store/selectivity", rec)
	}
	if rec.Matches != out.MatchesTotal {
		t.Errorf("record matches %d != response %d", rec.Matches, out.MatchesTotal)
	}
	if rec.TraceID != out.TraceID {
		t.Errorf("record trace id %d != response %d", rec.TraceID, out.TraceID)
	}
	if rec.BytesDecoded <= 0 || rec.VirtS <= 0 {
		t.Errorf("record %+v lacks cost accounting", rec)
	}

	// Filters: a non-matching var yields an empty list; a bad
	// min_latency is a 400; a satisfied min_latency keeps the record.
	if _, body := getBody(t, ts, "/debug/querylog?var=rho"); strings.TrimSpace(body) != "[]" {
		t.Errorf("var filter leaked records: %s", body)
	}
	if resp, _ := getBody(t, ts, "/debug/querylog?min_latency=zebra"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min_latency got status %d", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts, "/debug/querylog?min_latency=-1s"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative min_latency got status %d", resp.StatusCode)
	}
	if _, body := getBody(t, ts, "/debug/querylog?var=phi&min_latency=0s"); strings.TrimSpace(body) == "[]" {
		t.Error("matching filter dropped the record")
	}
}

func TestSLOAndExemplarExposition(t *testing.T) {
	st, _, _ := buildStore(t, 7, nil)
	objs, err := obs.ParseSLOObjectives("1ns,1h")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Stores:        map[string]*core.Store{"phi": st},
		SLOObjectives: objs,
	})
	resp, out := postQuery(t, ts, `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	_, payload := getBody(t, ts, "/metrics")
	// Any real query breaches 1ns and meets 1h, so both counter
	// families carry deterministic values.
	if v := metricValue(t, payload, `mloc_slo_query_breach_total{objective="1ns"}`); v != 1 {
		t.Errorf("1ns breach counter = %v, want 1", v)
	}
	if v := metricValue(t, payload, `mloc_slo_query_ok_total{objective="1h0m0s"}`); v != 1 {
		t.Errorf("1h ok counter = %v, want 1", v)
	}
	if v := metricValue(t, payload, `mloc_slo_query_ok_total{objective="1ns"}`); v != 0 {
		t.Errorf("1ns ok counter = %v, want 0", v)
	}

	// The latency histogram bucket that took the query carries its
	// trace id as an exemplar.
	wantEx := `# {trace_id="` + formatUint(out.TraceID) + `"}`
	found := false
	for _, line := range strings.Split(payload, "\n") {
		if strings.HasPrefix(line, "mloc_server_query_latency_seconds_bucket") && strings.Contains(line, wantEx) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no latency bucket carries exemplar %s:\n%s", wantEx, payload)
	}
	if probs := obs.Lint(payload, true); len(probs) != 0 {
		t.Errorf("exposition with exemplars fails lint: %v", probs)
	}
}

// formatUint avoids importing strconv for one call site.
func formatUint(v uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(buf[i:])
		}
	}
}

func TestQueryLatencyObservedOnFailure(t *testing.T) {
	st, _, _ := buildStore(t, 9, nil)
	_, ts := newTestServer(t, Config{
		Stores:    map[string]*core.Store{"phi": st},
		QueueWait: time.Millisecond,
	})
	// An unknown variable fails before the engine runs and must not
	// pollute the query log (it never acquired a slot or a store).
	resp, _ := postQuery(t, ts, `{"var":"nope","vc":{"min":0,"max":1},"ranks":1}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown var status %d", resp.StatusCode)
	}
	_, body := getBody(t, ts, "/debug/querylog")
	if strings.TrimSpace(body) != "[]" {
		t.Errorf("failed-before-engine query was logged: %s", body)
	}
}
