package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mloc/internal/cache"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/pfs"
	"mloc/internal/server"
)

// startTestDaemon boots a server.Handler over one tiny store, exactly
// what a local mlocd would serve.
func startTestDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	d := datagen.GTSLike(32, 32, 1)
	v, _ := d.Var("phi")
	cfg := core.DefaultConfig([]int{8, 8})
	cfg.NumBins = 8
	cfg.SampleSize = 256
	sim := pfs.New(pfs.DefaultConfig())
	st, err := core.Build(sim, sim.NewClock(), "t/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := server.New(server.Config{
		Stores:       map[string]*core.Store{"phi": st},
		Cache:        c,
		DefaultRanks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestNewRemoteClient(t *testing.T) {
	if _, err := newRemoteClient(""); err == nil {
		t.Error("empty -remote accepted")
	}
	c, err := newRemoteClient("127.0.0.1:9999")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(c.base, "http://") {
		t.Errorf("bare host:port not given a scheme: %q", c.base)
	}
	c2, err := newRemoteClient("https://example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if c2.base != "https://example.com" {
		t.Errorf("explicit scheme mangled: %q", c2.base)
	}
}

func TestCmdQueryRemote(t *testing.T) {
	ts := startTestDaemon(t)
	addr := strings.TrimPrefix(ts.URL, "http://")
	err := cmdQuery([]string{
		"-remote", addr,
		"-var", "phi",
		"-vc", "-1e30:1e30",
		"-sc", "0:15,0:15",
		"-ranks", "1",
	})
	if err != nil {
		t.Fatalf("cmdQuery: %v", err)
	}
	// Error paths: unknown variable, missing -var, unreachable server.
	if err := cmdQuery([]string{"-remote", addr, "-var", "nope"}); err == nil {
		t.Error("unknown remote variable accepted")
	}
	if err := cmdQuery([]string{"-remote", addr}); err == nil {
		t.Error("missing -var accepted")
	}
	if err := cmdQuery([]string{"-remote", "127.0.0.1:1", "-var", "phi"}); err == nil {
		t.Error("unreachable server produced no error")
	}
}

func TestCmdStatsRemote(t *testing.T) {
	ts := startTestDaemon(t)
	addr := strings.TrimPrefix(ts.URL, "http://")
	if err := cmdStats([]string{"-remote", addr}); err != nil {
		t.Fatalf("cmdStats: %v", err)
	}
	if err := cmdStats([]string{}); err == nil {
		t.Error("missing -remote accepted")
	}
}

func TestCmdTraceRemote(t *testing.T) {
	ts := startTestDaemon(t)
	addr := strings.TrimPrefix(ts.URL, "http://")
	// Before any query there is nothing to render but the listing works.
	if err := cmdTrace([]string{"-remote", addr}); err != nil {
		t.Fatalf("cmdTrace on empty ring: %v", err)
	}
	if err := cmdQuery([]string{"-remote", addr, "-var", "phi", "-vc", "-1e30:1e30"}); err != nil {
		t.Fatalf("cmdQuery: %v", err)
	}
	if err := cmdTrace([]string{"-remote", addr}); err != nil {
		t.Fatalf("cmdTrace listing: %v", err)
	}
	// The first query's trace id is 1 (tracer ids are sequential).
	if err := cmdTrace([]string{"-remote", addr, "-id", "1"}); err != nil {
		t.Fatalf("cmdTrace -id 1: %v", err)
	}
	if err := cmdTrace([]string{"-remote", addr, "-id", "999"}); err == nil {
		t.Error("unretained trace id produced no error")
	}
	if err := cmdTrace([]string{}); err == nil {
		t.Error("missing -remote accepted")
	}
}

func TestRemoteShapeLookup(t *testing.T) {
	ts := startTestDaemon(t)
	addr := strings.TrimPrefix(ts.URL, "http://")
	client, err := newRemoteClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := client.remoteShape("phi")
	if err != nil {
		t.Fatal(err)
	}
	if len(shape) != 2 || shape[0] != 32 {
		t.Errorf("remoteShape = %v, want [32 32]", shape)
	}
	if _, err := client.remoteShape("ghost"); err == nil {
		t.Error("remoteShape for unknown variable returned no error")
	}
}

// TestRetryAfterBoundedRetry: a 503 + Retry-After is retried exactly
// once after the hinted sleep; the second answer wins.
func TestRetryAfterBoundedRetry(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	}))
	t.Cleanup(ts.Close)
	client, err := newRemoteClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		OK bool `json:"ok"`
	}
	if err := client.getJSON("/stats", &out); err != nil {
		t.Fatalf("retried GET failed: %v", err)
	}
	if !out.OK || hits.Load() != 2 {
		t.Fatalf("ok=%v hits=%d, want success on the second attempt", out.OK, hits.Load())
	}
}

// TestRetryAfterSingleRetryOnly: a server that sheds forever gets
// exactly two attempts, then the error surfaces.
func TestRetryAfterSingleRetryOnly(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "0")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"queue full"}`)
	}))
	t.Cleanup(ts.Close)
	client, err := newRemoteClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	err = client.postJSON("/query", []byte(`{"var":"x"}`), &struct{}{})
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("error = %v, want surfaced queue-full", err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hit %d times, want exactly 2", hits.Load())
	}
}

// TestRetryAfterAbsentHeaderNoRetry: a shed without the header is not
// retried at all.
func TestRetryAfterAbsentHeaderNoRetry(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	client, err := newRemoteClient(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.getJSON("/stats", &struct{}{}); err == nil {
		t.Fatal("shed without Retry-After did not error")
	}
	if hits.Load() != 1 {
		t.Fatalf("server hit %d times, want exactly 1 (no retry without a hint)", hits.Load())
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"0", 0, true},
		{"2", 2 * time.Second, true},
		{"600", maxRetryAfter, true}, // capped
		{" 3 ", 3 * time.Second, true},
		{"", 0, false},
		{"-1", 0, false},
		{"soon", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, false},
	}
	for _, c := range cases {
		got, ok := parseRetryAfter(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("parseRetryAfter(%q) = %v %v, want %v %v", c.in, got, ok, c.want, c.ok)
		}
	}
}

// TestCmdClusterFaultAndNodes drives the cluster subcommands against
// stub endpoints speaking the router/injector wire formats.
func TestCmdClusterFaultAndNodes(t *testing.T) {
	var gotFault atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/fault", func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		gotFault.Store(string(body))
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"mode":"delay","delay_ms":100}`)
	})
	mux.HandleFunc("/cluster/nodes", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"nodes":[{"node":"a:1","slabs":9,"health":{"up":true,"last_probe_ms":0.4}},
			{"node":"b:2","slabs":7,"health":{"up":false,"consecutive_failures":3,"last_error":"connection refused"}}],
			"replication":2,"seed":1,"slabs_per_var":16,"vars":["phi"]}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")

	if err := cmdCluster([]string{"fault", "-remote", addr, "-mode", "delay", "-delay", "100ms"}); err != nil {
		t.Fatalf("cluster fault: %v", err)
	}
	sent, _ := gotFault.Load().(string)
	if !strings.Contains(sent, `"mode":"delay"`) || !strings.Contains(sent, `"delay_ms":100`) {
		t.Fatalf("fault request body = %s", sent)
	}
	if err := cmdCluster([]string{"nodes", "-remote", addr}); err != nil {
		t.Fatalf("cluster nodes: %v", err)
	}
	if err := cmdCluster([]string{"fault", "-remote", addr}); err == nil {
		t.Error("fault without -mode accepted")
	}
	if err := cmdCluster([]string{"bogus"}); err == nil {
		t.Error("unknown cluster subcommand accepted")
	}
	if err := cmdCluster(nil); err == nil {
		t.Error("bare cluster accepted")
	}
}

// TestOversizedResponseBounded: getJSON caps the response body at
// maxResponseBytes, so a misbehaving server streaming an enormous
// payload errors cleanly instead of OOMing the CLI. Whitespace padding
// keeps the handler cheap: the JSON decoder skips it byte by byte but
// never buffers it.
func TestOversizedResponseBounded(t *testing.T) {
	pad := strings.Repeat(" ", 1<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, "{")
		for written := 0; written <= maxResponseBytes; written += len(pad) {
			if _, err := io.WriteString(w, pad); err != nil {
				return // client hung up after its cap; expected
			}
		}
		io.WriteString(w, `"ok":true}`)
	}))
	t.Cleanup(ts.Close)
	client, err := newRemoteClient(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := client.getJSON("/stats", &out); err == nil {
		t.Fatal("getJSON decoded a response past maxResponseBytes without error")
	}
}

// TestOversizedErrorEnvelopeBounded: remoteError caps the error
// envelope at maxErrorBytes and falls back to the bare status line
// when the truncated envelope fails to decode — the CLI must not echo
// megabytes of attacker-controlled text either.
func TestOversizedErrorEnvelopeBounded(t *testing.T) {
	huge := strings.Repeat("x", 2<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"`+huge+`"}`)
	}))
	t.Cleanup(ts.Close)
	client, err := newRemoteClient(strings.TrimPrefix(ts.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	err = client.getJSON("/stats", &out)
	if err == nil {
		t.Fatal("getJSON accepted a 500 response")
	}
	if !strings.Contains(err.Error(), "server returned") {
		t.Fatalf("error = %v, want the server-returned status message", err)
	}
	if len(err.Error()) > 200 {
		t.Fatalf("error message is %d bytes; the oversized envelope leaked through the cap", len(err.Error()))
	}
}

// TestCmdQueryRemoteSkipsInvalidIndexes: shape.Coords panics on an
// index outside the grid, and the index comes from the server. A
// server that lists matches outside its own 32×32 shape must get them
// reported and skipped, not crash the CLI.
func TestCmdQueryRemoteSkipsInvalidIndexes(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/vars" {
			io.WriteString(w, `[{"var":"phi","shape":[32,32],"bins":8,"mode":"col"}]`)
			return
		}
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, `{"var":"phi","matches":[{"index":-1,"value":1},{"index":1024,"value":2},{"index":3,"value":3}],"matches_total":3}`)
	}))
	t.Cleanup(ts.Close)
	addr := strings.TrimPrefix(ts.URL, "http://")
	if err := cmdQuery([]string{"-remote", addr, "-var", "phi", "-print", "3"}); err != nil {
		t.Fatalf("cmdQuery: %v", err)
	}
}
