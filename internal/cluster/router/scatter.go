package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"mloc/internal/client"
	"mloc/internal/cluster/health"
	"mloc/internal/obs"
	"mloc/internal/query"
	"mloc/internal/server"
)

// shardCall is one planned node call: every row range of the query
// whose slab the call's primary answers, and the ordered replica list
// to try.
type shardCall struct {
	rows     query.Rows // ascending, disjoint, half-open dimension-0 ranges
	replicas []string
	body     []byte
}

// rowsString renders the call's ranges as "[lo,hi)" runs, the form
// shard spans and the per-shard report carry.
func (c *shardCall) rowsString() string {
	var b strings.Builder
	for _, r := range c.rows {
		fmt.Fprintf(&b, "[%d,%d)", r.Lo, r.Hi)
	}
	return b.String()
}

// add puts one slab's clipped rows [lo, hi) into the call, extending
// its last range when the two touch, and appends the slab's owners the
// call does not list yet.
func (c *shardCall) add(lo, hi int, owners []string) {
	if n := len(c.rows); n > 0 && c.rows[n-1].Hi == lo {
		c.rows[n-1].Hi = hi
	} else {
		c.rows = append(c.rows, query.RowRange{Lo: lo, Hi: hi})
	}
	for _, o := range owners {
		if !slices.Contains(c.replicas, o) {
			c.replicas = append(c.replicas, o)
		}
	}
}

// shardOutcome is a finished shard call.
type shardOutcome struct {
	call      *shardCall
	res       *server.ResultWire
	node      string // node that answered (empty on total failure)
	err       error
	hedged    bool
	failovers int
	elapsed   time.Duration
}

// plan intersects the request's spatial constraint with the variable's
// slab table, prunes slabs the query cannot touch, and groups the rest
// by the node that answers them: the first live owner of each slab. So
// a query makes at most one call per node, which plans all its row
// ranges as one access (paper §III-D: one fetch/decompress/filter pass
// per process, then one gather). A call's replica list is its primary
// followed by every other owner of its slabs; every data node serves
// identical stores (Bootstrap checks), so any of them can answer all of
// the call's rows.
func (rt *Router) plan(vi *varInfo, wire *server.QueryWire) ([]*shardCall, error) {
	reqLo, reqHi := 0, vi.shape[0]
	if wire.SC != nil {
		if len(wire.SC.Lo) != len(vi.shape) {
			return nil, fmt.Errorf("router: sc dimensionality %d != grid %d", len(wire.SC.Lo), len(vi.shape))
		}
		if wire.SC.Lo[0] > reqLo {
			reqLo = wire.SC.Lo[0]
		}
		if wire.SC.Hi[0] < reqHi {
			reqHi = wire.SC.Hi[0]
		}
	}
	var calls []*shardCall
	for _, sl := range vi.slabs {
		lo, hi := sl.lo, sl.hi
		if lo < reqLo {
			lo = reqLo
		}
		if hi > reqHi {
			hi = reqHi
		}
		if lo >= hi {
			continue // pruned: the query cannot touch this slab
		}
		owners := orderReplicas(rt.cfg.Health, sl.owners)
		i := slices.IndexFunc(calls, func(c *shardCall) bool { return c.replicas[0] == owners[0] })
		if i < 0 {
			i = len(calls)
			calls = append(calls, &shardCall{})
		}
		calls[i].add(lo, hi, owners)
	}
	for _, c := range calls {
		c.replicas = orderReplicas(rt.cfg.Health, c.replicas)
		body, err := subRequestBody(vi, wire, c.rows)
		if err != nil {
			return nil, err
		}
		c.body = body
	}
	return calls, nil
}

// orderReplicas keeps ring order but moves nodes the health checker
// considers dead to the back, so planning already avoids known-dead
// primaries (failover before the first byte is sent).
func orderReplicas(h *health.Checker, owners []string) []string {
	if h == nil {
		return append([]string(nil), owners...)
	}
	up := make([]string, 0, len(owners))
	down := make([]string, 0)
	for _, o := range owners {
		if h.Up(o) {
			up = append(up, o)
		} else {
			down = append(down, o)
		}
	}
	return append(up, down...)
}

// subRequestBody rewrites the client request for one node call: the
// spatial constraint's dimension-0 bounds become the envelope of the
// call's row ranges, and absent constraints become explicit full-domain
// bounds on the other dimensions. A call of several ranges lists them
// in rows; a call of one range needs no list, so the node runs exactly
// the query a direct client with that SC would send. Everything else
// passes through unchanged.
func subRequestBody(vi *varInfo, wire *server.QueryWire, rows query.Rows) ([]byte, error) {
	sub := *wire
	sc := server.SCWire{Lo: make([]int, len(vi.shape)), Hi: make([]int, len(vi.shape))}
	for d := range vi.shape {
		sc.Lo[d], sc.Hi[d] = 0, vi.shape[d]
		if wire.SC != nil {
			sc.Lo[d], sc.Hi[d] = wire.SC.Lo[d], wire.SC.Hi[d]
		}
	}
	sc.Lo[0], sc.Hi[0] = rows[0].Lo, rows[len(rows)-1].Hi
	sub.SC = &sc
	if len(rows) > 1 {
		sub.Rows = make([][]int, len(rows))
		for i, r := range rows {
			sub.Rows[i] = []int{r.Lo, r.Hi}
		}
	}
	return json.Marshal(&sub)
}

// scatter runs every call concurrently and gathers the outcomes in
// call order.
func (rt *Router) scatter(ctx context.Context, calls []*shardCall) []shardOutcome {
	outcomes := make([]shardOutcome, len(calls))
	var wg sync.WaitGroup
	for i := range calls {
		wg.Add(1)
		idx := i
		go func() { // bounded per-shard fan-out joined by wg.Wait below
			defer wg.Done()
			outcomes[idx] = rt.callShard(ctx, calls[idx])
		}()
	}
	wg.Wait()
	return outcomes
}

// attempt is one replica's answer inside callShard.
type attempt struct {
	node string
	res  *server.ResultWire
	err  error
}

// callShard executes one sub-query against the call's replica list:
// primary first, a hedge to the next replica if the primary is slow,
// and failover down the list on hard failures. The first success wins;
// the whole call is bounded by ShardTimeout.
func (rt *Router) callShard(ctx context.Context, call *shardCall) shardOutcome {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
	defer cancel()
	_, sp := obs.StartSpan(ctx, "shard")
	traced := sp != nil && !rt.cfg.DisableTracePropagation
	out := rt.raceReplicas(ctx, call, traced)
	if sp != nil {
		sp.SetString("rows", call.rowsString())
		sp.SetBool("hedged", out.hedged)
		sp.SetInt("failovers", int64(out.failovers))
		if out.err != nil {
			sp.SetString("error", out.err.Error())
		} else {
			sp.SetString("node", out.node)
			sp.SetInt("matches", int64(out.res.MatchesTotal))
			rt.graftRemote(sp, out.res, out.node)
		}
		sp.End()
	}
	return out
}

// graftRemote splices the data node's span subtree, if the response
// carried one, under the shard span that issued the call, tagged with
// the answering node's address. Undecodable or oversized payloads are
// dropped (and counted), never trusted: the wire decoder bounds bytes
// and depth before a single remote span is allocated.
func (rt *Router) graftRemote(sp *obs.Span, res *server.ResultWire, node string) {
	if len(res.Trace) == 0 {
		return
	}
	tw, err := obs.DecodeTraceWire(res.Trace, obs.DefaultMaxWireBytes)
	if err != nil {
		rt.graftErrors.Inc()
		rt.Logf("router: dropping span subtree from %s: %v", node, err)
		return
	}
	_, dropped := sp.GraftWire(tw, node)
	rt.grafts.Inc()
	if dropped > 0 {
		rt.graftDrops.Add(dropped)
	}
	// The subtree now lives in the router's trace; the raw payload must
	// not be re-serialized into the merged client response.
	res.Trace = nil
}

// raceReplicas is the hedging/failover loop of callShard.
func (rt *Router) raceReplicas(ctx context.Context, call *shardCall, traced bool) shardOutcome {
	start := time.Now()
	out := shardOutcome{call: call}
	// Buffered to the replica count: a launched goroutine can always
	// deliver its attempt and exit, even after the race is decided.
	results := make(chan attempt, len(call.replicas))
	launch := func(node string) {
		go func() { // replica attempt; exits via the buffered results channel even when it loses the race
			res, err := rt.post(ctx, node, call.body, traced)
			results <- attempt{node: node, res: res, err: err}
		}()
	}
	rt.fanout.Inc()
	next := 0
	launch(call.replicas[next])
	next++
	inFlight := 1

	var hedge <-chan time.Time
	if rt.cfg.HedgeAfter > 0 && next < len(call.replicas) {
		t := time.NewTimer(rt.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var firstErr error
	for {
		select {
		case <-hedge:
			hedge = nil
			if next < len(call.replicas) {
				rt.hedges.Inc()
				out.hedged = true
				launch(call.replicas[next])
				next++
				inFlight++
			}
		case a := <-results:
			inFlight--
			if a.err == nil {
				if rt.cfg.Health != nil {
					rt.cfg.Health.ReportSuccess(a.node)
				}
				out.res, out.node, out.elapsed = a.res, a.node, time.Since(start)
				if h := rt.shardLatency[a.node]; h != nil {
					h.Observe(out.elapsed.Seconds())
				}
				return out
			}
			rt.noteFailure(a.node, a.err)
			if firstErr == nil {
				firstErr = fmt.Errorf("router: node %s: %w", a.node, a.err)
			}
			if next < len(call.replicas) {
				rt.failovers.Inc()
				out.failovers++
				launch(call.replicas[next])
				next++
				inFlight++
				continue
			}
			if inFlight == 0 {
				out.err, out.elapsed = firstErr, time.Since(start)
				return out
			}
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = fmt.Errorf("router: shard %s timed out: %w", call.rowsString(), ctx.Err())
			}
			out.err, out.elapsed = firstErr, time.Since(start)
			return out
		}
	}
}

// noteFailure records a failed shard call on the node's error counter
// and the health checker.
func (rt *Router) noteFailure(node string, err error) {
	if ctr := rt.shardErrors[node]; ctr != nil {
		ctr.Inc()
	}
	if rt.cfg.Health != nil {
		rt.cfg.Health.ReportFailure(node, err)
	}
}

// post sends one sub-query to a data node and decodes the response.
// Any transport error, non-200 status, or undecodable (corrupt) body
// is a shard failure the caller handles via failover.
func (rt *Router) post(ctx context.Context, node string, body []byte, traced bool) (*server.ResultWire, error) {
	req, err := client.NewRequest(ctx, http.MethodPost, client.BaseURL(node)+"/query", body)
	if err != nil {
		return nil, err
	}
	if traced {
		// Presence is the signal: any non-empty value asks the node to
		// attach its completed span subtree to the response envelope.
		// Trace ids are per-process, so none travels with the request.
		req.Header.Set(obs.TraceHeader, "1")
	}
	var res server.ResultWire
	if err := client.JSON(rt.cfg.Client, req, client.MaxResultBytes, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
