package server

// Integration tests for the observability surface: /metrics scraped
// mid-query, /debug/traces span trees matching reported latency, and
// the /stats key contract.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"mloc/internal/cache"
	"mloc/internal/core"
	"mloc/internal/obs"
)

func getBody(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// metricValue extracts one sample's value from an exposition payload.
func metricValue(t *testing.T, payload, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(sample) + " (\\S+)$")
	m := re.FindStringSubmatch(payload)
	if m == nil {
		t.Fatalf("sample %q not in exposition:\n%s", sample, payload)
	}
	var v float64
	if _, err := fmt.Sscanf(m[1], "%g", &v); err != nil {
		t.Fatalf("sample %q value %q: %v", sample, m[1], err)
	}
	return v
}

// TestMetricsMidQuery scrapes /metrics while a query is held in flight
// at the decode gate: the in-flight gauge must show it, the payload
// must be lint-clean, and counters must be monotonic across a second
// scrape after the query completes.
func TestMetricsMidQuery(t *testing.T) {
	gate := newGateCodec()
	st, _, _ := buildStore(t, 11, gate)
	c, err := cache.New(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Stores:        map[string]*core.Store{"phi": st},
		Cache:         c,
		MaxConcurrent: 2,
	})
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`

	gate.armed.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postQuery(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held query status %d", resp.StatusCode)
		}
	}()
	<-gate.entered // the query is mid-decode

	resp, mid := getBody(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if probs := obs.Lint(mid, true); len(probs) != 0 {
		t.Errorf("mid-query exposition lint problems: %v", probs)
	}
	if got := metricValue(t, mid, "mloc_server_in_flight"); got != 1 {
		t.Errorf("mid-query in_flight = %v, want 1", got)
	}
	if got := metricValue(t, mid, "mloc_server_queries_total"); got != 1 {
		t.Errorf("mid-query queries_total = %v, want 1", got)
	}

	gate.armed.Store(false)
	close(gate.release)
	wg.Wait()

	// The handler's slot is released after the client has the body (see
	// idleStats): scrape until the gauge has caught up.
	_, after := getBody(t, ts, "/metrics")
	for deadline := time.Now().Add(2 * time.Second); metricValue(t, after, "mloc_server_in_flight") != 0 && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		_, after = getBody(t, ts, "/metrics")
	}
	if probs := obs.Lint(after, true); len(probs) != 0 {
		t.Errorf("post-query exposition lint problems: %v", probs)
	}
	// Monotonic counters: each sample at least its mid-query value.
	for _, sample := range []string{
		"mloc_server_queries_total",
		`mloc_server_requests_total{endpoint="query"}`,
		`mloc_server_requests_total{endpoint="metrics"}`,
		"mloc_cache_misses_total",
	} {
		before, now := metricValue(t, mid, sample), metricValue(t, after, sample)
		if now < before {
			t.Errorf("%s went backwards: %v -> %v", sample, before, now)
		}
	}
	if got := metricValue(t, after, `mloc_server_query_outcomes_total{outcome="ok"}`); got != 1 {
		t.Errorf("ok outcomes = %v, want 1", got)
	}
	if got := metricValue(t, after, "mloc_server_in_flight"); got != 0 {
		t.Errorf("post-query in_flight = %v, want 0", got)
	}
	// The engine went through the cache, so its families must be live.
	if got := metricValue(t, after, "mloc_cache_entries"); got <= 0 {
		t.Errorf("cache_entries = %v, want > 0", got)
	}
	for _, family := range []string{
		"mloc_server_queue_wait_seconds_bucket",
		`mloc_server_request_seconds_bucket{endpoint="query",`,
		"mloc_cache_lookup_seconds_bucket",
	} {
		if !strings.Contains(after, family) {
			t.Errorf("exposition missing histogram family %q", family)
		}
	}
}

// TestTraceEndpointSpanSums pulls the span tree of a completed query by
// its reported trace_id and checks the component events sum to the
// reported virtual latency — the acceptance criterion for end-to-end
// tracing.
func TestTraceEndpointSpanSums(t *testing.T) {
	st, _, _ := buildStore(t, 12, nil)
	_, ts := newTestServer(t, Config{Stores: map[string]*core.Store{"phi": st}})

	resp, res := postQuery(t, ts, `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	if res.TraceID == 0 {
		t.Fatal("response carries no trace_id")
	}

	tresp, body := getBody(t, ts, fmt.Sprintf("/debug/traces?id=%d", res.TraceID))
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d: %s", tresp.StatusCode, body)
	}
	var td obs.TraceDump
	if err := json.Unmarshal([]byte(body), &td); err != nil {
		t.Fatalf("decoding trace dump: %v", err)
	}
	if td.ID != res.TraceID || td.Root == nil {
		t.Fatalf("dump id=%d root=%v, want id=%d with a root", td.ID, td.Root, res.TraceID)
	}
	if !td.Root.Ended {
		t.Error("root span not ended after response was written")
	}

	var slowest float64
	var ranks int
	for _, child := range td.Root.Children {
		if child.Name != "rank" {
			continue
		}
		ranks++
		sum := child.SumVirt(func(d *obs.SpanDump) bool {
			switch d.Name {
			case "fetch", "decode", "reassemble", "filter":
				return true
			}
			return false
		})
		if sum > slowest {
			slowest = sum
		}
	}
	if ranks == 0 {
		t.Fatal("trace has no rank spans")
	}
	if math.Abs(slowest-res.Time.Total) > 1e-6 {
		t.Errorf("slowest rank span sum %v != reported latency %v", slowest, res.Time.Total)
	}

	// The ring listing contains the same trace, newest first.
	lresp, lbody := getBody(t, ts, "/debug/traces")
	if lresp.StatusCode != http.StatusOK {
		t.Fatalf("trace list status %d", lresp.StatusCode)
	}
	var all []obs.TraceDump
	if err := json.Unmarshal([]byte(lbody), &all); err != nil {
		t.Fatalf("decoding trace list: %v", err)
	}
	if len(all) != 1 || all[0].ID != res.TraceID {
		t.Errorf("trace list = %d entries (first id %d), want the one query", len(all), all[0].ID)
	}

	// Error paths: unparseable and unretained ids.
	if r, _ := getBody(t, ts, "/debug/traces?id=bogus"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d, want 400", r.StatusCode)
	}
	if r, _ := getBody(t, ts, "/debug/traces?id=999999"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id status %d, want 404", r.StatusCode)
	}
}

// TestStatsLegacyKeys pins the flat-JSON /stats contract: every legacy
// key stays present (now sourced from the registry) with the JSON
// content type.
func TestStatsLegacyKeys(t *testing.T) {
	st, _, _ := buildStore(t, 13, nil)
	c, err := cache.New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Stores: map[string]*core.Store{"phi": st}, Cache: c})
	if resp, _ := postQuery(t, ts, `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/stats Content-Type = %q", ct)
	}
	var stats map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"queries_total", "queries_ok", "queries_rejected", "queries_canceled",
		"queries_failed", "queue_wait_us", "in_flight", "queued", "draining",
		"stores", "cache_hits", "cache_misses", "cache_evictions", "cache_waits",
		"cache_suppressed", "cache_entries", "cache_bytes", "cache_capacity",
	} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats missing legacy key %q: %v", key, stats)
		}
	}
	if stats["queries_total"] != 1 || stats["queries_ok"] != 1 {
		t.Errorf("stats totals = %d/%d, want 1/1", stats["queries_total"], stats["queries_ok"])
	}
}

// TestSharedRegistryAcrossServers checks a caller-supplied registry and
// tracer are used as-is (the mlocd wiring).
func TestSharedRegistryAcrossServers(t *testing.T) {
	st, _, _ := buildStore(t, 15, nil)
	reg := obs.NewRegistry()
	extra := reg.Counter("mloc_test_extra_total", "Registered by the embedding process.")
	extra.Inc()
	tr := obs.NewTracer(2)
	s, ts := newTestServer(t, Config{
		Stores:   map[string]*core.Store{"phi": st},
		Registry: reg,
		Tracer:   tr,
	})
	if s.Registry() != reg {
		t.Fatal("server did not adopt the supplied registry")
	}
	if resp, _ := postQuery(t, ts, `{"var":"phi"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	_, body := getBody(t, ts, "/metrics")
	if !strings.Contains(body, "mloc_test_extra_total 1") {
		t.Error("caller-registered family missing from /metrics")
	}
	if tr.Len() != 1 {
		t.Errorf("caller tracer retained %d traces, want 1", tr.Len())
	}
}

// TestLabelsBoundedAgainstVarNames: every metric label value comes from
// a finite set (endpoint names, outcome and shed classes), never from a
// request. After the first of many queries naming distinct variables,
// /metrics lists no new series.
func TestLabelsBoundedAgainstVarNames(t *testing.T) {
	st, _, _ := buildStore(t, 5, nil)
	_, ts := newTestServer(t, Config{Stores: map[string]*core.Store{"phi": st}})
	series := func() int {
		_, payload := getBody(t, ts, "/metrics")
		n := 0
		for _, line := range strings.Split(payload, "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		return n
	}
	postQuery(t, ts, `{"var":"v0"}`)
	want := series()
	for i := 1; i <= 20; i++ {
		postQuery(t, ts, fmt.Sprintf(`{"var":"v%d"}`, i))
	}
	if got := series(); got != want {
		t.Fatalf("/metrics lists %d series after 20 distinct var names, %d after the first", got, want)
	}
}
