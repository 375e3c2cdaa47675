package health

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mloc/internal/obs"
)

func healthzServer(t *testing.T) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
}

func TestProbeLoopMarksDownAndUp(t *testing.T) {
	ts := healthzServer(t)
	node := strings.TrimPrefix(ts.URL, "http://")
	c, err := New(Config{
		Nodes:    []string{node},
		Interval: 20 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.Start(ctx)
	defer func() {
		cancel()
		c.Wait()
	}()

	if !c.Up(node) {
		t.Fatal("node should start optimistically up")
	}

	ts.Close() // the node dies
	deadline := time.Now().Add(5 * time.Second)
	for c.Up(node) {
		if time.Now().After(deadline) {
			t.Fatal("dead node never marked down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].Up || snap[0].LastError == "" {
		t.Fatalf("snapshot after death = %+v", snap)
	}
}

func TestReportFailureFastPath(t *testing.T) {
	c, err := New(Config{Nodes: []string{"n1", "n2"}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c.ReportFailure("n1", fmt.Errorf("connection refused"))
	if !c.Up("n1") {
		t.Fatal("one failure below threshold marked node down")
	}
	c.ReportFailure("n1", fmt.Errorf("connection refused"))
	if c.Up("n1") {
		t.Fatal("threshold failures did not mark node down")
	}
	if c.UpCount() != 1 {
		t.Fatalf("UpCount = %d, want 1", c.UpCount())
	}
	c.ReportSuccess("n1")
	if !c.Up("n1") {
		t.Fatal("success did not revive node")
	}
	// Unknown nodes are ignored on report and down on query.
	c.ReportFailure("ghost", fmt.Errorf("x"))
	if c.Up("ghost") {
		t.Fatal("unknown node reported up")
	}
}

func TestInstrumentExposesCleanMetrics(t *testing.T) {
	c, err := New(Config{Nodes: []string{"n1:1", "n2:2"}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	c.Instrument(reg)
	c.ReportFailure("n1:1", fmt.Errorf("boom"))
	c.ReportFailure("n1:1", fmt.Errorf("boom"))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	payload := sb.String()
	if problems := obs.Lint(payload, true); len(problems) != 0 {
		t.Fatalf("exposition problems: %v", problems)
	}
	for _, want := range []string{
		`mloc_cluster_node_up{node="n1:1"} 0`,
		`mloc_cluster_node_up{node="n2:2"} 1`,
		`mloc_cluster_health_transitions_total{node="n1:1"} 1`,
	} {
		if !strings.Contains(payload, want) {
			t.Fatalf("exposition missing %q:\n%s", want, payload)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty node set accepted")
	}
}
