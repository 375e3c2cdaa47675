package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mloc/internal/cache"
	"mloc/internal/cluster/fault"
	"mloc/internal/core"
	"mloc/internal/obs"
	"mloc/internal/pfs"
	"mloc/internal/server"
)

func TestLoadSpecSynthetic(t *testing.T) {
	name, data, shape, err := loadSpec("phi=gts:32:7")
	if err != nil {
		t.Fatal(err)
	}
	if name != "phi" || len(shape) != 2 || shape[0] != 32 {
		t.Fatalf("loadSpec = %q %v", name, shape)
	}
	if int64(len(data)) != shape.Elems() {
		t.Fatalf("%d values for shape %v", len(data), shape)
	}
	if _, _, _, err := loadSpec("v=s3d:8"); err != nil {
		t.Fatalf("s3d spec: %v", err)
	}
}

func TestLoadSpecFile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6}
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	path := filepath.Join(t.TempDir(), "data.f64")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	name, data, shape, err := loadSpec("t=file:" + path + ":2x3")
	if err != nil {
		t.Fatal(err)
	}
	if name != "t" || shape.Elems() != 6 || data[4] != 5 {
		t.Fatalf("loadSpec = %q %v %v", name, shape, data)
	}
}

func TestLoadSpecErrors(t *testing.T) {
	bad := []string{
		"",                    // no name
		"noequals",            // no source
		"=gts:32",             // empty name
		"v=nope:32",           // unknown source
		"v=gts:zero",          // bad side
		"v=gts:-4",            // negative side
		"v=gts:32:notanumber", // bad seed
		"v=file:/nope",        // file without shape
		"v=file:/nope/x:2x2",  // missing file
	}
	for _, spec := range bad {
		if _, _, _, err := loadSpec(spec); err == nil {
			t.Errorf("loadSpec(%q) accepted", spec)
		}
	}
}

func TestStoreConfig(t *testing.T) {
	cfg, err := storeConfig("col", "8x8", 12, "V-S-M")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumBins != 12 || len(cfg.ChunkSize) != 2 || cfg.Order.String() != core.OrderVSM.String() {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := storeConfig("bogus", "", 10, "V-M-S"); err == nil {
		t.Error("unknown mode accepted")
	}
	if _, err := storeConfig("col", "", 10, "X-Y-Z"); err == nil {
		t.Error("bad order accepted")
	}
	auto, err := storeConfig("col", "", 10, "V-M-S")
	if err != nil {
		t.Fatal(err)
	}
	if auto.ChunkSize != nil {
		t.Errorf("empty -chunk should defer chunk choice, got %v", auto.ChunkSize)
	}
}

// TestBuildStoresAndServe builds stores from specs exactly as main does
// and round-trips a query through the HTTP handler.
func TestBuildStoresAndServe(t *testing.T) {
	cfg, err := storeConfig("col", "", 8, "V-M-S")
	if err != nil {
		t.Fatal(err)
	}
	cfg.SampleSize = 256
	sim := pfs.New(pfs.DefaultConfig())
	tracer := obs.NewTracer(4)
	stores, err := buildStores(sim, []string{"phi=gts:32:1", "chi=gts:32:2"}, cfg, tracer)
	if err != nil {
		t.Fatal(err)
	}
	if len(stores) != 2 {
		t.Fatalf("built %d stores, want 2", len(stores))
	}
	if tracer.Len() != 2 {
		t.Errorf("retained %d build traces, want one per store", tracer.Len())
	}
	for _, td := range tracer.Dump() {
		if td.Root.Find("pass_binning") == nil || td.Root.Find("pass_encode") == nil {
			t.Errorf("build trace %d missing pass spans", td.ID)
		}
	}
	if _, err := buildStores(sim, []string{"a=gts:16", "a=gts:16"}, cfg, obs.NewTracer(4)); err == nil {
		t.Error("duplicate store name accepted")
	}

	c, err := cache.New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := server.New(server.Config{Stores: stores, Cache: c, DefaultRanks: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"var":"chi","vc":{"min":-1e30,"max":1e30}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var res struct {
		MatchesTotal int `json:"matches_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.MatchesTotal == 0 {
		t.Fatal("full-range query matched nothing")
	}
}

// TestComposeDataHandler checks the data-node handler stack: the fault
// admin is reachable outside the injected path, and a kill-mode
// injector drops service requests while the admin stays alive to
// revive the node.
func TestComposeDataHandler(t *testing.T) {
	svc := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	inj := fault.New()
	ts := httptest.NewServer(composeDataHandler(svc, inj, false))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("service status %d", resp.StatusCode)
	}

	if err := inj.Set(fault.Kill, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(ts.URL + "/vars"); err == nil {
		t.Fatal("killed node answered a service request")
	}
	resp, err = http.Post(ts.URL+"/cluster/fault", "application/json",
		strings.NewReader(`{"mode":"off"}`))
	if err != nil {
		t.Fatalf("fault admin unreachable on a killed node: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fault admin status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revived node status %d", resp.StatusCode)
	}
}

// TestRunRoleValidation covers the CLI surface around -role without
// starting listeners.
func TestRunRoleValidation(t *testing.T) {
	if err := run([]string{"-role", "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown -role") {
		t.Errorf("bogus role error = %v", err)
	}
	if err := run([]string{"-role", "router"}); err == nil || !strings.Contains(err.Error(), "at least one -node") {
		t.Errorf("router without nodes error = %v", err)
	}
	if err := run([]string{"-role", "router", "-node", "x", "-store", "phi=gts:16"}); err == nil ||
		!strings.Contains(err.Error(), "only valid with -role data") {
		t.Errorf("router with -store error = %v", err)
	}
	if err := run([]string{}); err == nil || !strings.Contains(err.Error(), "-store spec is required") {
		t.Errorf("data without stores error = %v", err)
	}
}
