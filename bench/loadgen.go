package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// maxRespBytes bounds every body the harness reads; the largest answer
// (65536 matches) is well under it.
const maxRespBytes = 64 << 20

// client is one caller of the service: its own transport, so its own
// keep-alive connection.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one query. With keep set it returns the whole body;
// otherwise the body is drained and dropped.
func (c *client) post(ctx context.Context, target string, body []byte, keep bool) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/query", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	limited := io.LimitReader(resp.Body, maxRespBytes)
	if !keep && resp.StatusCode == http.StatusOK {
		_, err = io.Copy(io.Discard, limited)
		return nil, err
	}
	data, err := io.ReadAll(limited)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// getStats fetches a node's or router's flat /stats counters.
func (c *client) getStats(ctx context.Context, target string) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var stats map[string]int64
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&stats); err != nil {
		return nil, fmt.Errorf("decoding %s/stats: %w", target, err)
	}
	return stats, nil
}

// opSample is one successful request: its kind and its round-trip time.
type opSample struct {
	kind int
	dur  time.Duration
}

// passResult is what one pass of the load generator observed.
type passResult struct {
	samples   []opSample
	attempted int
	failed    int
	wall      time.Duration
	firstErr  error
}

func (p *passResult) merge(o *passResult) {
	p.samples = append(p.samples, o.samples...)
	p.attempted += o.attempted
	p.failed += o.failed
	if p.firstErr == nil {
		p.firstErr = o.firstErr
	}
}

func (p *passResult) opsPerSec() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(len(p.samples)) / p.wall.Seconds()
}

// runClients is the closed loop: one goroutine per list, each sending
// its next request only after the previous reply was drained. With
// seconds > 0 a client cycles through its list until the time is up;
// with seconds == 0 it walks the list once. rec, when non-nil, gets a
// client.roundtrip span per request (traced pass only, one client).
func runClients(ctx context.Context, target string, lists [][]*request, seconds float64, rec *spanRecorder) *passResult {
	results := make([]*passResult, len(lists))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := range lists {
		wg.Add(1)
		c := c
		go func() { //mlocvet:ignore spmd-goroutine -- one closed-loop client per list, joined by wg.Wait below
			defer wg.Done()
			cl := newClient()
			defer cl.close()
			res := &passResult{samples: make([]opSample, 0, len(lists[c]))}
			results[c] = res
			for i := 0; ; i++ {
				if seconds > 0 {
					if !time.Now().Before(deadline) {
						return
					}
				} else if i == len(lists[c]) {
					return
				}
				req := lists[c][i%len(lists[c])]
				res.attempted++
				t0 := time.Now()
				if rec != nil {
					rec.beginRequest()
				}
				_, err := cl.post(ctx, target, req.body, false)
				t1 := time.Now()
				if rec != nil {
					rec.add("client.roundtrip", t0, t1)
				}
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = fmt.Errorf("%s request %d: %w", requestKinds[req.kind], i, err)
					}
					continue
				}
				res.samples = append(res.samples, opSample{kind: req.kind, dur: t1.Sub(t0)})
			}
		}()
	}
	wg.Wait()
	total := &passResult{wall: time.Since(start)}
	for _, r := range results {
		total.merge(r)
	}
	return total
}

// verifyPass sends reqs from one client, decodes every answer in full
// and checks it against the oracle. It doubles as warm-up.
func verifyPass(ctx context.Context, target string, reqs []*request) (*respTotals, *passResult) {
	cl := newClient()
	defer cl.close()
	totals := &respTotals{}
	res := &passResult{}
	start := time.Now()
	for i, req := range reqs {
		res.attempted++
		data, err := cl.post(ctx, target, req.body, true)
		if err == nil {
			var ans answer
			if err = json.Unmarshal(data, &ans); err == nil {
				if err = checkAnswer(req, &ans); err == nil {
					totals.add(&ans, len(data))
					continue
				}
			}
		}
		res.failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("verify: %s request %d (%s): %w", requestKinds[req.kind], i, req.body, err)
		}
	}
	res.wall = time.Since(start)
	return totals, res
}

// latenciesMS returns the latencies of the samples of one kind (all
// kinds with kind < 0) in ascending order, in milliseconds.
func latenciesMS(samples []opSample, kind int) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if kind < 0 || s.kind == kind {
			out = append(out, float64(s.dur.Nanoseconds())/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// percentile reads the p-quantile (0..1) of an ascending slice by
// nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the interpolated median of v (0 for no values).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
