// Command mloclint validates MLOC observability output the way
// promtool's check subcommands would, without external dependencies:
// it verifies /metrics is well-formed Prometheus text exposition whose
// base names match ^mloc_[a-z_]+$ with no duplicate samples (including
// the exemplar trailers on histogram buckets), that the mloc_slo_*
// counter families are coherent (objective labels parse as durations
// and the ok/breach families cover identical objective sets), and that
// /debug/traces serves decodable span trees.
//
// Usage:
//
//	mloclint -remote HOST:PORT [-pprof]   # validate a running mlocd
//	mloclint -file exposition.txt         # validate a saved scrape
//	mloclint -selfcheck                   # boot an in-process server and validate it
//
// Exit status is nonzero when any check fails, so scripts (the
// serve-smoke gate, make check) can depend on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"mloc/internal/cache"
	"mloc/internal/client"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/obs"
	"mloc/internal/pfs"
	"mloc/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "mloclint: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mloclint", flag.ExitOnError)
	remote := fs.String("remote", "", "mlocd address, e.g. 127.0.0.1:8080")
	file := fs.String("file", "", "validate a saved exposition file instead of a server")
	selfcheck := fs.Bool("selfcheck", false, "boot an in-process server over a tiny store and validate its endpoints")
	probePprof := fs.Bool("pprof", false, "with -remote: also require /debug/pprof/ to answer")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *file != "":
		payload, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		return lintExposition(string(payload))
	case *remote != "":
		return checkServer(client.BaseURL(*remote), *probePprof)
	case *selfcheck:
		return selfCheck()
	default:
		return fmt.Errorf("one of -remote, -file, or -selfcheck is required")
	}
}

// lintExposition validates one text-exposition payload and reports
// every problem found.
func lintExposition(payload string) error {
	problems := obs.Lint(payload, true)
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "mloclint: exposition line %d: %s\n", p.Line, p.Msg)
	}
	if len(problems) != 0 {
		return fmt.Errorf("%d exposition problem(s)", len(problems))
	}
	if err := lintSLO(payload); err != nil {
		return err
	}
	families, samples := countExposition(payload)
	fmt.Printf("mloclint: exposition ok (%d families, %d samples)\n", families, samples)
	return nil
}

// lintSLO validates the mloc_slo_query_{ok,breach}_total families when
// present: every sample must carry exactly one objective label whose
// value parses as a Go duration, and both families must expose the
// same objective set — a missing counterpart means an SLO was
// registered half-way.
func lintSLO(payload string) error {
	objectives := map[string]map[string]bool{}
	for _, line := range strings.Split(payload, "\n") {
		if !strings.HasPrefix(line, "mloc_slo_query_") || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, "{")
		if !ok {
			return fmt.Errorf("slo sample %q has no objective label", line)
		}
		labels, _, ok := strings.Cut(rest, "}")
		if !ok {
			return fmt.Errorf("slo sample %q has an unterminated label block", line)
		}
		obj, ok := strings.CutPrefix(labels, `objective="`)
		obj, ok2 := strings.CutSuffix(obj, `"`)
		if !ok || !ok2 || strings.Contains(obj, `"`) {
			return fmt.Errorf("slo sample %q: want exactly the objective label", line)
		}
		if _, err := time.ParseDuration(obj); err != nil {
			return fmt.Errorf("slo objective %q is not a duration: %v", obj, err)
		}
		if objectives[name] == nil {
			objectives[name] = map[string]bool{}
		}
		objectives[name][obj] = true
	}
	if len(objectives) == 0 {
		return nil
	}
	ok, breach := objectives["mloc_slo_query_ok_total"], objectives["mloc_slo_query_breach_total"]
	if len(ok) != len(breach) {
		return fmt.Errorf("slo families diverge: %d ok objectives vs %d breach objectives", len(ok), len(breach))
	}
	for obj := range ok {
		if !breach[obj] {
			return fmt.Errorf("slo objective %q has an ok counter but no breach counter", obj)
		}
	}
	fmt.Printf("mloclint: slo ok (%d objectives)\n", len(ok))
	return nil
}

// countExposition tallies families and samples for the ok line.
func countExposition(payload string) (families, samples int) {
	for _, line := range strings.Split(payload, "\n") {
		switch {
		case line == "" || strings.HasPrefix(line, "# HELP"):
		case strings.HasPrefix(line, "# TYPE"):
			families++
		case !strings.HasPrefix(line, "#"):
			samples++
		}
	}
	return families, samples
}

// checkServer validates a live server's /metrics and /debug/traces.
func checkServer(base string, probePprof bool) error {
	hc := &http.Client{Timeout: 30 * time.Second}

	payload, err := fetch(hc, base+"/metrics", "text/plain")
	if err != nil {
		return err
	}
	if err := lintExposition(string(payload)); err != nil {
		return err
	}

	body, err := fetch(hc, base+"/debug/traces", "application/json")
	if err != nil {
		return err
	}
	var traces []obs.TraceDump
	if err := json.Unmarshal(body, &traces); err != nil {
		return fmt.Errorf("/debug/traces is not a JSON trace list: %w", err)
	}
	for _, td := range traces {
		if err := validTrace(td); err != nil {
			return err
		}
	}
	if len(traces) > 0 {
		// Round-trip one trace through the ?id= path.
		one, err := fetch(hc, fmt.Sprintf("%s/debug/traces?id=%d", base, traces[0].ID), "application/json")
		if err != nil {
			return err
		}
		var td obs.TraceDump
		if err := json.Unmarshal(one, &td); err != nil {
			return fmt.Errorf("/debug/traces?id=%d is not a JSON trace: %w", traces[0].ID, err)
		}
		if err := validTrace(td); err != nil {
			return err
		}
	}
	fmt.Printf("mloclint: traces ok (%d retained)\n", len(traces))

	if probePprof {
		if _, err := fetch(hc, base+"/debug/pprof/cmdline", ""); err != nil {
			return fmt.Errorf("pprof probe: %w", err)
		}
		fmt.Println("mloclint: pprof ok")
	}
	return nil
}

// validTrace checks the structural invariants of a retained trace.
func validTrace(td obs.TraceDump) error {
	if td.ID == 0 {
		return fmt.Errorf("trace with id 0")
	}
	if td.Root == nil {
		return fmt.Errorf("trace %d has no root span", td.ID)
	}
	if !td.Root.Ended {
		return fmt.Errorf("retained trace %d has an unended root", td.ID)
	}
	return nil
}

// fetch GETs a URL, requiring status 200 and (when non-empty) a
// Content-Type prefix. A metrics or trace payload is bounded in
// practice; the read is capped so a misbehaving endpoint cannot OOM the
// linter.
func fetch(hc *http.Client, url, wantType string) ([]byte, error) {
	req, err := client.NewRequest(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	var body []byte
	err = client.Do(hc, req, client.MaxResultBytes, func(h http.Header, r io.Reader) error {
		if ct := h.Get("Content-Type"); wantType != "" && !strings.HasPrefix(ct, wantType) {
			return fmt.Errorf("Content-Type %q, want %s", ct, wantType)
		}
		var rerr error
		body, rerr = io.ReadAll(r)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return body, nil
}

// selfCheck builds a tiny store, serves it in-process, runs one query,
// and validates the observability surface end to end — the make-check
// gate needs no running daemon.
func selfCheck() error {
	d := datagen.GTSLike(32, 32, 1)
	v, err := d.Var("phi")
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig([]int{8, 8})
	cfg.NumBins = 8
	cfg.SampleSize = 256
	sim := pfs.New(pfs.DefaultConfig())
	reg := obs.NewRegistry()
	sim.Instrument(reg)
	st, err := core.Build(sim, sim.NewClock(), "lint/phi", d.Shape, v.Data, cfg)
	if err != nil {
		return err
	}
	c, err := cache.New(1 << 20)
	if err != nil {
		return err
	}
	svc, err := server.New(server.Config{
		Stores:       map[string]*core.Store{"phi": st},
		Cache:        c,
		DefaultRanks: 2,
		Registry:     reg,
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	req, err := client.NewRequest(context.Background(), http.MethodPost, ts.URL+"/query",
		[]byte(`{"var":"phi","vc":{"min":-1e30,"max":1e30}}`))
	if err != nil {
		return err
	}
	if err := client.Do(http.DefaultClient, req, 0, nil); err != nil {
		return fmt.Errorf("selfcheck query: %w", err)
	}
	return checkServer(ts.URL, false)
}
