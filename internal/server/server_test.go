package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mloc/internal/cache"
	"mloc/internal/compress"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
)

// buildStore builds one small test store, optionally with a byte codec
// override.
func buildStore(t *testing.T, seed int64, codec compress.ByteCodec) (*core.Store, []float64, grid.Shape) {
	t.Helper()
	d := datagen.GTSLike(32, 32, seed)
	v, _ := d.Var("phi")
	cfg := core.DefaultConfig([]int{8, 8})
	cfg.NumBins = 8
	cfg.SampleSize = 256
	if codec != nil {
		cfg.ByteCodec = codec
	}
	fs := pfs.New(pfs.DefaultConfig())
	st, err := core.Build(fs, pfs.NewClock(), "srv/phi", d.Shape, v.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st, v.Data, d.Shape
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, ts *httptest.Server, body string) (*http.Response, ResultWire) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var res ResultWire
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, res
}

func getStats(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	var stats map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// idleStats polls /stats until in_flight reads 0, for at most two
// seconds, and returns the last snapshot. handleQuery releases its
// admission slot in a defer that runs after the body is written, so a
// client can hold the whole response while the gauge still counts it.
func idleStats(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats := getStats(t, ts)
		if stats["in_flight"] == 0 || time.Now().After(deadline) {
			return stats
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestQueryEndToEnd round-trips a combined value+spatial query and
// checks the matches against a direct engine query; the second
// identical request must be served from the shared decode cache.
func TestQueryEndToEnd(t *testing.T) {
	st, data, shape := buildStore(t, 1, nil)
	c, err := cache.New(8 << 20)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Stores: map[string]*core.Store{"phi": st}, Cache: c})

	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30},"sc":{"lo":[0,0],"hi":[15,15]}}`
	resp, res := postQuery(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if res.Var != "phi" || res.MatchesTotal == 0 || res.Truncated {
		t.Fatalf("response %+v: want phi matches untruncated", res)
	}
	coords := make([]int, shape.Dims())
	for _, m := range res.Matches {
		if m.Value != data[m.Index] {
			t.Fatalf("match at %d = %v, want %v", m.Index, m.Value, data[m.Index])
		}
		coords = shape.Coords(m.Index, coords[:0])
		for d, c := range coords {
			if c < 0 || c > 15 {
				t.Fatalf("match %d outside the region in dim %d (coord %d)", m.Index, d, c)
			}
		}
	}

	resp2, res2 := postQuery(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second query status %d", resp2.StatusCode)
	}
	if res2.CacheHits == 0 {
		t.Errorf("second identical query reported zero cache hits")
	}
	if res2.MatchesTotal != res.MatchesTotal {
		t.Errorf("second query found %d matches, first %d", res2.MatchesTotal, res.MatchesTotal)
	}

	stats := getStats(t, ts)
	if stats["queries_ok"] != 2 {
		t.Errorf("queries_ok = %d, want 2", stats["queries_ok"])
	}
	if stats["cache_hits"] == 0 {
		t.Errorf("stats cache_hits = 0 after a cached query")
	}
}

// TestMatchCapTruncates checks MaxMatches bounds the response while
// reporting the true total.
func TestMatchCapTruncates(t *testing.T) {
	st, _, _ := buildStore(t, 2, nil)
	_, ts := newTestServer(t, Config{Stores: map[string]*core.Store{"phi": st}, MaxMatches: 10})
	resp, res := postQuery(t, ts, `{"var":"phi","vc":{"min":-1e30,"max":1e30}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !res.Truncated || len(res.Matches) != 10 || res.MatchesTotal <= 10 {
		t.Fatalf("cap not applied: %d returned of %d total, truncated=%v",
			len(res.Matches), res.MatchesTotal, res.Truncated)
	}
}

// gateCodec blocks DecodeBytes while armed, holding engine queries
// mid-flight so admission and cancellation behavior is observable.
type gateCodec struct {
	inner   compress.ByteCodec
	armed   *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGateCodec() gateCodec {
	return gateCodec{
		inner:   compress.NewZlib(compress.DefaultZlibLevel),
		armed:   &atomic.Bool{},
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
}

func (g gateCodec) Name() string                           { return g.inner.Name() }
func (g gateCodec) EncodeBytes(src []byte) ([]byte, error) { return g.inner.EncodeBytes(src) }
func (g gateCodec) DecodeBytes(data, dst []byte) ([]byte, error) {
	if g.armed.Load() {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	}
	return g.inner.DecodeBytes(data, dst)
}

// TestAdmissionShedsOverload saturates a single-slot server: the
// queued request must get 503 after the wait budget and the
// beyond-queue request an immediate 429, both with Retry-After.
func TestAdmissionShedsOverload(t *testing.T) {
	gate := newGateCodec()
	st, _, _ := buildStore(t, 3, gate)
	_, ts := newTestServer(t, Config{
		Stores:        map[string]*core.Store{"phi": st},
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     150 * time.Millisecond,
	})
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`

	gate.armed.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // q1 occupies the only slot, held at the decode gate
		defer wg.Done()
		resp, _ := postQuery(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("held query finished with status %d, want 200", resp.StatusCode)
		}
	}()
	<-gate.entered // q1 is executing

	statuses := make(chan int, 2)
	wg.Add(1)
	go func() { // q2 queues, then times out -> 503
		defer wg.Done()
		resp, _ := postQuery(t, ts, body)
		statuses <- resp.StatusCode
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Errorf("503 without Retry-After")
		}
	}()
	// Wait until q2 is counted as queued before sending q3.
	deadline := time.Now().Add(2 * time.Second)
	for getStats(t, ts)["queued"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("q2 never appeared in the wait queue")
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp3, _ := postQuery(t, ts, body) // q3 overflows the queue -> 429
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Errorf("beyond-queue request status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if got := <-statuses; got != http.StatusServiceUnavailable {
		t.Errorf("queued request status %d, want 503 after wait budget", got)
	}

	gate.armed.Store(false)
	close(gate.release)
	wg.Wait()

	stats := idleStats(t, ts)
	if stats["queries_rejected"] < 2 {
		t.Errorf("queries_rejected = %d, want >= 2", stats["queries_rejected"])
	}
	if stats["in_flight"] != 0 {
		t.Errorf("in_flight = %d after all queries finished", stats["in_flight"])
	}
}

// TestCanceledRequestFreesSlot cancels a held in-flight request's
// context and checks the engine aborts at the next bin boundary, the
// handler counts the cancellation, the admission slot frees, and a
// follow-up query succeeds. The handler is driven directly so the
// cancellation instant is deterministic (no connection-teardown
// propagation delay).
func TestCanceledRequestFreesSlot(t *testing.T) {
	gate := newGateCodec()
	st, _, _ := buildStore(t, 4, gate)
	s, ts := newTestServer(t, Config{
		Stores:        map[string]*core.Store{"phi": st},
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     5 * time.Second,
	})
	body := `{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":1}`

	gate.armed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleQuery(rec, req)
	}()
	<-gate.entered // the query is decoding bin data and holds the slot
	cancel()       // client disconnects
	gate.armed.Store(false)
	close(gate.release) // the held decode finishes; the engine then sees ctx done
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("canceled query did not return promptly")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("canceled query status %d, want 503", rec.Code)
	}

	// The slot must be free: the next query succeeds instead of
	// queueing behind a zombie.
	resp, res := postQuery(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up query status %d, want 200 on a freed slot", resp.StatusCode)
	}
	if res.MatchesTotal == 0 {
		t.Errorf("follow-up query returned no matches")
	}
	stats := idleStats(t, ts)
	if stats["queries_canceled"] == 0 {
		t.Errorf("queries_canceled = 0, want >= 1")
	}
	if stats["in_flight"] != 0 {
		t.Errorf("in_flight = %d, want 0", stats["in_flight"])
	}
}

// TestBadRequests exercises the 400 paths of the strict decoder.
func TestBadRequests(t *testing.T) {
	st, _, _ := buildStore(t, 5, nil)
	_, ts := newTestServer(t, Config{Stores: map[string]*core.Store{"phi": st}})
	dims16 := strings.Repeat("0,", 15) + "0"
	dims17 := dims16 + ",0"
	cases := []struct {
		name string
		body string
		want int
		// msg, when set, is what the answer's error must say.
		msg string
	}{
		{"empty body", ``, http.StatusBadRequest, ""},
		{"not json", `hello`, http.StatusBadRequest, ""},
		{"missing var", `{"vc":{"min":0,"max":1}}`, http.StatusBadRequest, ""},
		{"unknown field", `{"var":"phi","selectivity":-3}`, http.StatusBadRequest, ""},
		{"half-open vc", `{"var":"phi","vc":{"min":0}}`, http.StatusBadRequest, ""},
		{"inverted vc", `{"var":"phi","vc":{"min":2,"max":1}}`, http.StatusBadRequest, "inverted vc [2,1]"},
		{"negative sc", `{"var":"phi","sc":{"lo":[-1,0],"hi":[3,3]}}`, http.StatusBadRequest, ""},
		{"inverted sc", `{"var":"phi","sc":{"lo":[5,5],"hi":[1,1]}}`, http.StatusBadRequest, "inverted sc in dim 0 [5,1]"},
		{"sc length mismatch", `{"var":"phi","sc":{"lo":[0],"hi":[1,1]}}`, http.StatusBadRequest, ""},
		{"sc lo longer than hi", `{"var":"phi","sc":{"lo":[0,0],"hi":[1]}}`, http.StatusBadRequest, "sc lo/hi lengths 2/1"},
		{"sc wrong dims", `{"var":"phi","sc":{"lo":[0,0,0],"hi":[1,1,1]}}`, http.StatusBadRequest, ""},
		{"sc past the wire dims", `{"var":"phi","sc":{"lo":[` + dims17 + `],"hi":[` + dims17 + `]}}`, http.StatusBadRequest,
			"sc has 17 dimensions, limit 16"},
		{"sc at the wire dims", `{"var":"phi","sc":{"lo":[` + dims16 + `],"hi":[` + dims16 + `]}}`, http.StatusBadRequest,
			"sc dimensionality 16 != grid 2"},
		{"huge plod", `{"var":"phi","plod":99}`, http.StatusBadRequest, ""},
		{"negative plod", `{"var":"phi","plod":-1}`, http.StatusBadRequest, ""},
		{"huge ranks", `{"var":"phi","ranks":100000}`, http.StatusBadRequest, ""},
		{"trailing data", `{"var":"phi"}{"var":"phi"}`, http.StatusBadRequest, ""},
		{"empty rows", `{"var":"phi","rows":[]}`, http.StatusBadRequest, ""},
		{"empty row range", `{"var":"phi","rows":[[4,4]]}`, http.StatusBadRequest, ""},
		{"row range of three bounds", `{"var":"phi","rows":[[0,1,2]]}`, http.StatusBadRequest, ""},
		{"row range of one bound", `{"var":"phi","rows":[[4]]}`, http.StatusBadRequest, ""},
		{"descending rows", `{"var":"phi","rows":[[8,12],[0,4]]}`, http.StatusBadRequest, ""},
		{"overlapping rows", `{"var":"phi","rows":[[0,8],[4,12]]}`, http.StatusBadRequest, ""},
		{"rows beyond dim 0", `{"var":"phi","rows":[[24,40]]}`, http.StatusBadRequest, ""},
		{"rows outside sc", `{"var":"phi","sc":{"lo":[8,0],"hi":[16,32]},"rows":[[4,12]]}`, http.StatusBadRequest, ""},
		{"too many rows", `{"var":"phi","rows":[[0,1]` + strings.Repeat(`,[0,1]`, MaxWireRows) + `]}`, http.StatusBadRequest, ""},
		{"unknown var", `{"var":"nope"}`, http.StatusNotFound, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postQuery(t, ts, tc.body)
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.msg == "" {
				return
			}
			var answer struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(answer.Error, tc.msg) {
				t.Errorf("error %q, want %q", answer.Error, tc.msg)
			}
		})
	}
}

// TestMethodsAndAuxEndpoints covers 405s, /vars, and /healthz.
func TestMethodsAndAuxEndpoints(t *testing.T) {
	st, _, _ := buildStore(t, 6, nil)
	s, ts := newTestServer(t, Config{Stores: map[string]*core.Store{"phi": st}})

	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/stats", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats status %d, want 405", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars []VarWire
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 || vars[0].Var != "phi" || len(vars[0].Shape) != 2 {
		t.Errorf("/vars = %+v, want one 2-D phi entry", vars)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d, want 200", hresp.StatusCode)
	}

	s.SetDraining(true)
	dresp, _ := postQuery(t, ts, `{"var":"phi"}`)
	if dresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /query status %d, want 503", dresp.StatusCode)
	}
	if dresp.Header.Get("Retry-After") == "" {
		t.Errorf("draining 503 without Retry-After")
	}
	hresp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp2.Body.Close()
	if hresp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz status %d, want 503", hresp2.StatusCode)
	}
}

// TestConfigValidation checks New's requirements and defaults.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without stores accepted")
	}
	st, _, _ := buildStore(t, 7, nil)
	s, err := New(Config{Stores: map[string]*core.Store{"phi": st}})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.MaxConcurrent != 8 || s.cfg.MaxQueue != 16 || s.cfg.DefaultRanks != 4 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
}

// TestConcurrentQueriesThroughServer hammers the service from parallel
// clients (run under -race in the Makefile's race gate).
func TestConcurrentQueriesThroughServer(t *testing.T) {
	st, _, _ := buildStore(t, 8, nil)
	c, err := cache.New(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Stores:        map[string]*core.Store{"phi": st},
		Cache:         c,
		MaxConcurrent: 4,
		MaxQueue:      64,
		QueueWait:     10 * time.Second,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				body := fmt.Sprintf(`{"var":"phi","vc":{"min":-1e30,"max":1e30},"ranks":%d}`, 1+g%3)
				resp, res := postQuery(t, ts, body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: status %d", g, resp.StatusCode)
					return
				}
				if res.MatchesTotal == 0 {
					t.Errorf("goroutine %d: zero matches", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Stats().Hits == 0 {
		t.Errorf("no cache hits across 40 identical queries")
	}
}
