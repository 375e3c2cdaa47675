package router

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"mloc/internal/core"
	"mloc/internal/server"
)

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
	const maxBody = 512
	srv, err := server.New(server.Config{
		Stores:       map[string]*core.Store{"phi": buildStore(t, 1)},
		MaxBodyBytes: maxBody,
	})
	if err != nil {
		t.Fatal(err)
	}
	nts := httptest.NewServer(srv.Handler())
	t.Cleanup(nts.Close)
	node := &dataNode{ts: nts, addr: strings.TrimPrefix(nts.URL, "http://")}
	rt, rts := startRouter(t, []*dataNode{node}, func(c *Config) { c.MaxBodyBytes = maxBody })
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
			body: `{"var":"phi"` + strings.Repeat(" ", 2*maxBody) + `}`,
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
