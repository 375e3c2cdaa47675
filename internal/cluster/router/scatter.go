package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mloc/internal/client"
	"mloc/internal/cluster/health"
	"mloc/internal/obs"
	"mloc/internal/server"
)

// shardCall is one planned sub-query: a contiguous row range and the
// ordered replica list to try.
type shardCall struct {
	lo, hi   int // half-open dimension-0 row range
	replicas []string
	body     []byte
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
// slab table, prunes slabs the query cannot touch, and coalesces
// consecutive slabs with identical owners into one call each.
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
		last := len(calls) - 1
		if last >= 0 && calls[last].hi == lo && sameOwners(calls[last].replicas, sl.owners) {
			calls[last].hi = hi // coalesce with the previous call
			continue
		}
		calls = append(calls, &shardCall{lo: lo, hi: hi, replicas: orderReplicas(rt.cfg.Health, sl.owners)})
	}
	for _, c := range calls {
		body, err := subRequestBody(vi, wire, c.lo, c.hi)
		if err != nil {
			return nil, err
		}
		c.body = body
	}
	return calls, nil
}

func sameOwners(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// subRequestBody rewrites the client request for one shard: the
// spatial constraint's dimension-0 bounds become the call's row range,
// and absent constraints become explicit full-domain bounds on the
// other dimensions. Everything else passes through unchanged, so data
// nodes execute exactly the query a direct client would send.
func subRequestBody(vi *varInfo, wire *server.QueryWire, lo, hi int) ([]byte, error) {
	sub := *wire
	sc := server.SCWire{Lo: make([]int, len(vi.shape)), Hi: make([]int, len(vi.shape))}
	for d := range vi.shape {
		sc.Lo[d], sc.Hi[d] = 0, vi.shape[d]
		if wire.SC != nil {
			sc.Lo[d], sc.Hi[d] = wire.SC.Lo[d], wire.SC.Hi[d]
		}
	}
	sc.Lo[0], sc.Hi[0] = lo, hi
	sub.SC = &sc
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
		sp.SetString("rows", fmt.Sprintf("[%d,%d)", call.lo, call.hi))
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
				firstErr = fmt.Errorf("router: shard [%d,%d) timed out: %w", call.lo, call.hi, ctx.Err())
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
