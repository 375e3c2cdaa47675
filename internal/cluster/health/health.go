// Package health tracks data-node liveness for the cluster router: a
// background checker probes each node's /healthz on an interval, and
// the router both consults the verdicts (to skip dead nodes before
// fanning out) and feeds observations back (a failed shard call counts
// like a failed probe, so a crash is noticed at the next query, not
// the next tick).
//
// A node starts optimistic (up) and goes down after failThreshold
// consecutive failures, so one dropped probe does not flap the
// topology; any success resets it to up immediately.
package health

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"mloc/internal/client"
	"mloc/internal/obs"
)

const (
	// probeTimeout bounds one /healthz probe.
	probeTimeout = 500 * time.Millisecond
	// failThreshold is the consecutive failures that mark a node down.
	failThreshold = 2
)

// Config parameterizes the checker.
type Config struct {
	// Nodes are the data-node addresses to probe (host:port or URL).
	// Required.
	Nodes []string
	// Interval between probe rounds (default 1s).
	Interval time.Duration
	// Client issues the probes (default: a plain http.Client; the
	// per-probe context enforces probeTimeout).
	Client *http.Client
	// Logf receives up/down transition lines (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) normalize() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("health: at least one node is required")
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return nil
}

// NodeStatus is one node's externally visible health state.
type NodeStatus struct {
	Node        string  `json:"node"`
	Up          bool    `json:"up"`
	Failures    int     `json:"consecutive_failures"`
	LastProbeMS float64 `json:"last_probe_ms"`
	LastError   string  `json:"last_error,omitempty"`
	Transitions int64   `json:"transitions"`
}

// nodeState is the internal mutable counterpart of NodeStatus.
type nodeState struct {
	up          bool
	failures    int
	lastProbeMS float64
	lastError   string
	transitions int64
}

// Checker probes nodes and answers liveness queries. Create with New,
// start the probe loop with Start, join it with Wait.
type Checker struct {
	cfg Config

	mu    sync.Mutex
	state map[string]*nodeState

	wg sync.WaitGroup

	probes      *obs.Counter
	probeFails  *obs.Counter
	transitions map[string]*obs.Counter
}

// New validates the configuration and returns a checker with every
// node optimistically up.
func New(cfg Config) (*Checker, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	c := &Checker{cfg: cfg, state: make(map[string]*nodeState, len(cfg.Nodes))}
	for _, n := range cfg.Nodes {
		c.state[n] = &nodeState{up: true}
	}
	return c, nil
}

// Instrument registers per-node health metrics on the registry: an up
// gauge and a transition counter per node, plus probe totals.
func (c *Checker) Instrument(reg *obs.Registry) {
	c.probes = reg.Counter("mloc_cluster_health_probes_total",
		"Health probes issued to data nodes.")
	c.probeFails = reg.Counter("mloc_cluster_health_probe_failures_total",
		"Health probes that failed.")
	c.transitions = make(map[string]*obs.Counter, len(c.cfg.Nodes))
	for _, n := range c.cfg.Nodes {
		node := n
		reg.GaugeFunc("mloc_cluster_node_up",
			"1 while the node answers health probes.", func() float64 {
				if c.Up(node) {
					return 1
				}
				return 0
			}, obs.L("node", node))
		c.transitions[node] = reg.Counter("mloc_cluster_health_transitions_total",
			"Up/down state changes per node.", obs.L("node", node))
	}
}

// Start launches the probe loop; it runs until ctx is canceled. Call
// Wait to join it during shutdown.
func (c *Checker) Start(ctx context.Context) {
	c.wg.Add(1)
	// Daemon lifecycle, not SPMD compute: the loop exits on ctx.Done
	// and is joined via Wait.
	go func() { // the probe loop, on its own cadence; joined via Wait
		defer c.wg.Done()
		tick := time.NewTicker(c.cfg.Interval)
		defer tick.Stop()
		for {
			c.probeAll(ctx)
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
			}
		}
	}()
}

// Wait blocks until the probe loop started by Start has exited.
func (c *Checker) Wait() { c.wg.Wait() }

// probeAll probes every node concurrently and waits for the round to
// finish; a dead node costs one probeTimeout, not Interval x nodes.
func (c *Checker) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, node := range c.cfg.Nodes {
		wg.Add(1)
		n := node
		go func() { // bounded per-node probe fan-out joined by wg.Wait below
			defer wg.Done()
			c.probe(ctx, n)
		}()
	}
	wg.Wait()
}

// probe issues one /healthz request and records the outcome.
func (c *Checker) probe(ctx context.Context, node string) {
	if c.probes != nil {
		c.probes.Inc()
	}
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := client.NewRequest(pctx, http.MethodGet, client.BaseURL(node)+"/healthz", nil)
	if err != nil {
		c.record(node, 0, err)
		return
	}
	start := time.Now()
	err = client.Do(c.cfg.Client, req, 0, nil)
	c.record(node, time.Since(start), err)
}

// record applies one observation (probe or reported shard outcome).
func (c *Checker) record(node string, elapsed time.Duration, err error) {
	c.mu.Lock()
	st, ok := c.state[node]
	if !ok {
		c.mu.Unlock()
		return
	}
	if elapsed > 0 {
		st.lastProbeMS = float64(elapsed.Microseconds()) / 1000
	}
	var transitioned string
	if err == nil {
		st.failures = 0
		st.lastError = ""
		if !st.up {
			st.up = true
			st.transitions++
			transitioned = "up"
		}
	} else {
		if c.probeFails != nil {
			c.probeFails.Inc()
		}
		st.failures++
		st.lastError = err.Error()
		if st.up && st.failures >= failThreshold {
			st.up = false
			st.transitions++
			transitioned = "down"
		}
	}
	c.mu.Unlock()
	if transitioned != "" {
		if ctr := c.transitions[node]; ctr != nil {
			ctr.Inc()
		}
		c.cfg.Logf("health: node %s is %s", node, transitioned)
	}
}

// ReportFailure feeds a failed shard call back as a probe failure, so
// the router notices death faster than the probe interval.
func (c *Checker) ReportFailure(node string, err error) { c.record(node, 0, err) }

// ReportSuccess feeds a successful shard call back, resetting the
// failure streak.
func (c *Checker) ReportSuccess(node string) { c.record(node, 0, nil) }

// Up reports whether the node is currently considered alive. Unknown
// nodes are down.
func (c *Checker) Up(node string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[node]
	return ok && st.up
}

// UpCount returns how many nodes are currently up.
func (c *Checker) UpCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, st := range c.state {
		if st.up {
			n++
		}
	}
	return n
}

// Snapshot returns every node's status, sorted by node name.
func (c *Checker) Snapshot() []NodeStatus {
	c.mu.Lock()
	out := make([]NodeStatus, 0, len(c.state))
	for node, st := range c.state {
		out = append(out, NodeStatus{
			Node:        node,
			Up:          st.up,
			Failures:    st.failures,
			LastProbeMS: st.lastProbeMS,
			LastError:   st.lastError,
			Transitions: st.transitions,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}
