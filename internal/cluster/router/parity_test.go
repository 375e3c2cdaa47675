package router

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"mloc/internal/core"
	"mloc/internal/server"
)

// answerBytes is what a routed answer must reproduce of a single
// node's, byte for byte: the match list as the node encoded it, the
// exact total and the truncation flag.
type answerBytes struct {
	Matches      json.RawMessage `json:"matches"`
	MatchesTotal int             `json:"matches_total"`
	Truncated    bool            `json:"truncated"`
	Shards       []shardDetail   `json:"shards"`
}

// TestRoutedParityMatrix: over three data nodes serving a flat and a
// hierarchical-index store, routers at replication 1 and 2 with 3, 8
// and 12 slabs per variable answer random boxes, VC windows, index-only
// and PLoD-2 requests byte for byte as one node does, with an exact
// matches_total, in at most one call per node.
func TestRoutedParityMatrix(t *testing.T) {
	nodes := make([]*dataNode, 3)
	for i := range nodes {
		nodes[i] = startDataNode(t, map[string]*core.Store{
			"flat": buildStoreCfg(t, 1, false),
			"hier": buildStoreCfg(t, 1, true),
		})
	}
	r := rand.New(rand.NewSource(13))
	box := func() string {
		lo0, lo1 := r.Intn(24), r.Intn(24)
		return fmt.Sprintf(`,"sc":{"lo":[%d,%d],"hi":[%d,%d]}`, lo0, lo1, lo0+1+r.Intn(32-lo0), lo1+1+r.Intn(32-lo1))
	}
	window := func() string {
		lo := 9.6 + 0.6*r.Float64()
		return fmt.Sprintf(`,"vc":{"min":%.4f,"max":%.4f}`, lo, lo+0.05+0.5*r.Float64())
	}
	matched := 0
	for _, replication := range []int{1, 2} {
		for _, slabs := range []int{3, 8, 12} {
			rt, rts := startRouter(t, nodes, func(c *Config) {
				c.Replication = replication
				c.SlabsPerVar = slabs
			})
			for i := 0; i < 16; i++ {
				body := `{"var":"` + []string{"flat", "hier"}[i%2] + `"`
				switch i / 2 % 4 { // four kinds, each twice on both stores
				case 0:
					body += box()
				case 1:
					body += window() + `,"index_only":true`
				case 2:
					body += window() + `,"plod":2`
				case 3:
					body += window()
				}
				if r.Intn(2) == 0 && !strings.Contains(body, `"sc"`) {
					body += box()
				}
				body += fmt.Sprintf(`,"ranks":%d}`, 1+r.Intn(3))
				label := fmt.Sprintf("replication %d, %d slabs: %s", replication, slabs, body)

				var direct, routed answerBytes
				if code := postJSON(t, nodes[r.Intn(len(nodes))].ts.URL+"/query", body, &direct); code != http.StatusOK {
					t.Fatalf("%s: direct status %d", label, code)
				}
				before := rt.fanout.Value()
				if code := postJSON(t, rts.URL+"/query", body, &routed); code != http.StatusOK {
					t.Fatalf("%s: routed status %d", label, code)
				}
				if string(routed.Matches) != string(direct.Matches) {
					t.Fatalf("%s: routed matches differ from a single node's", label)
				}
				if routed.MatchesTotal != direct.MatchesTotal || routed.Truncated != direct.Truncated {
					t.Fatalf("%s: routed total %d/%v, single node %d/%v",
						label, routed.MatchesTotal, routed.Truncated, direct.MatchesTotal, direct.Truncated)
				}
				calls := rt.fanout.Value() - before
				if calls != int64(len(routed.Shards)) || calls > int64(len(nodes)) {
					t.Fatalf("%s: %d node calls (%d shard reports) for %d nodes", label, calls, len(routed.Shards), len(nodes))
				}
				matched += direct.MatchesTotal
			}
		}
	}
	if matched == 0 {
		t.Fatal("no request of the matrix matched anything; the test is vacuous")
	}
}

// frameRole is one daemon role under TestRolesAnswerAlike.
type frameRole struct {
	name, url, prefix string
	setDraining       func(bool)
}

// refusal is everything a client or operator can observe about one
// request that was not answered with a result.
type refusal struct {
	status            int
	allow, retryAfter string
	// envelope is the sorted key list of the JSON error body.
	envelope string
	// outcome is the query outcome class the request moved ("" when it
	// was not counted as a query at all).
	outcome string
	// endpointErrors is the movement of request_errors_total{endpoint}.
	endpointErrors float64
}

// observe sends one request to a role and reports how it was refused.
func (fr frameRole) observe(t *testing.T, method, path, endpoint, body string) refusal {
	t.Helper()
	sample := fr.prefix + `_request_errors_total{endpoint="` + endpoint + `"}`
	var before, after map[string]int64
	getJSON(t, fr.url+"/stats", &before)
	errsBefore := sampleValue(t, metricsPayload(t, fr.url), sample)

	req, err := http.NewRequest(method, fr.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := refusal{
		status:     resp.StatusCode,
		allow:      resp.Header.Get("Allow"),
		retryAfter: resp.Header.Get("Retry-After"),
	}
	var envelope map[string]string
	if err := json.Unmarshal(raw, &envelope); err != nil {
		t.Fatalf("%s %s %s: body %q is not an error envelope: %v", fr.name, method, path, raw, err)
	}
	keys := make([]string, 0, len(envelope))
	for k := range envelope {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got.envelope = strings.Join(keys, ",")

	getJSON(t, fr.url+"/stats", &after)
	for _, class := range []string{"ok", "degraded", "failed", "rejected", "canceled"} {
		if after["queries_"+class] != before["queries_"+class] {
			got.outcome += class
		}
	}
	got.endpointErrors = sampleValue(t, metricsPayload(t, fr.url), sample) - errsBefore
	return got
}

// TestRolesAnswerAlike drives the same refused requests at a data node
// and at a router over it: both are the one service frame, so status,
// headers, error-envelope shape, outcome class and the endpoint error
// counter must agree case by case.
func TestRolesAnswerAlike(t *testing.T) {
	srv, err := server.New(server.Config{
		Stores: map[string]*core.Store{"phi": buildStore(t, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	nts := httptest.NewServer(srv.Handler())
	t.Cleanup(nts.Close)
	node := &dataNode{ts: nts, addr: strings.TrimPrefix(nts.URL, "http://")}
	rt, rts := startRouter(t, []*dataNode{node}, nil)
	roles := []frameRole{
		{"data node", nts.URL, "mloc_server", srv.SetDraining},
		{"router", rts.URL, "mloc_cluster", rt.SetDraining},
	}

	cases := []struct {
		name, method, path, endpoint, body string
		draining                           bool
		want                               refusal
	}{
		{name: "non-POST query", method: http.MethodGet, path: "/query", endpoint: "query",
			want: refusal{status: 405, allow: "POST"}},
		{name: "malformed body", method: http.MethodPost, path: "/query", endpoint: "query", body: `{nope`,
			want: refusal{status: 400, outcome: "failed"}},
		{name: "unknown field", method: http.MethodPost, path: "/query", endpoint: "query", body: `{"var":"phi","selectivity":3}`,
			want: refusal{status: 400, outcome: "failed"}},
		{name: "oversized body", method: http.MethodPost, path: "/query", endpoint: "query",
			body: `{"var":"phi"` + strings.Repeat(" ", server.MaxBodyBytes) + `}`,
			want: refusal{status: 400, outcome: "failed"}},
		{name: "unknown variable", method: http.MethodPost, path: "/query", endpoint: "query", body: `{"var":"ghost"}`,
			want: refusal{status: 404, outcome: "failed"}},
		{name: "sc of the wrong dimensionality", method: http.MethodPost, path: "/query", endpoint: "query",
			body: `{"var":"phi","sc":{"lo":[0,0,0],"hi":[1,1,1]}}`,
			want: refusal{status: 400, outcome: "failed"}},
		{name: "draining", method: http.MethodPost, path: "/query", endpoint: "query", body: `{"var":"phi"}`, draining: true,
			want: refusal{status: 503, retryAfter: "5", outcome: "rejected"}},
		{name: "POST stats", method: http.MethodPost, path: "/stats", endpoint: "stats", want: refusal{status: 405, allow: "GET"}},
		{name: "POST vars", method: http.MethodPost, path: "/vars", endpoint: "vars", want: refusal{status: 405, allow: "GET"}},
		{name: "POST metrics", method: http.MethodPost, path: "/metrics", endpoint: "metrics", want: refusal{status: 405, allow: "GET"}},
		{name: "POST traces", method: http.MethodPost, path: "/debug/traces", endpoint: "traces", want: refusal{status: 405, allow: "GET"}},
		{name: "POST querylog", method: http.MethodPost, path: "/debug/querylog", endpoint: "querylog", want: refusal{status: 405, allow: "GET"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.want.envelope = "error,status"
			tc.want.endpointErrors = 1
			for _, role := range roles {
				role.setDraining(tc.draining)
				got := role.observe(t, tc.method, tc.path, tc.endpoint, tc.body)
				role.setDraining(false)
				if got != tc.want {
					t.Errorf("%s: %+v, want %+v", role.name, got, tc.want)
				}
			}
		})
	}

	// Draining is also a shed reason on both roles, and fails /healthz.
	for _, role := range roles {
		sample := role.prefix + `_shed_total{reason="draining"}`
		if got := sampleValue(t, metricsPayload(t, role.url), sample); got != 1 {
			t.Errorf("%s: %s = %v, want 1", role.name, sample, got)
		}
		role.setDraining(true)
		if code := getJSON(t, role.url+"/healthz", nil); code != http.StatusServiceUnavailable {
			t.Errorf("%s: draining /healthz status %d, want 503", role.name, code)
		}
		if got := sampleValue(t, metricsPayload(t, role.url), role.prefix+"_draining"); got != 1 {
			t.Errorf("%s: draining gauge = %v, want 1", role.name, got)
		}
		role.setDraining(false)
	}
}
