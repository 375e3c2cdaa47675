package main

import (
	"fmt"
	"math"

	"mloc/internal/server"
)

// answer is a decoded /query response: the single-node wire form plus
// the router's partial-result annotations (absent on a data node).
type answer struct {
	server.ResultWire
	Degraded bool `json:"degraded"`
	Shards   []struct {
		MS float64 `json:"ms"`
	} `json:"shards"`
}

// checkAnswer compares one response against a brute-force scan of the
// raw field. It walks the query's spatial domain in row-major order —
// the order responses list their matches in — so one pass decides both
// "every qualifying point was returned" and "nothing else was".
//
// With req.relTol == 0 the index set must be exact and values
// bit-equal. Otherwise each point's decoded value may sit within
// relTol·|v| of its true value v, which also blurs a value constraint's
// edges: a point must be returned only when v is inside the constraint
// by more than that margin, and may be returned when v is outside by
// less.
func checkAnswer(req *request, ans *answer) error {
	if ans.Truncated {
		return fmt.Errorf("response is truncated at %d of %d matches", len(ans.Matches), ans.MatchesTotal)
	}
	if ans.Degraded {
		return fmt.Errorf("response is degraded")
	}
	if ans.MatchesTotal != len(ans.Matches) {
		return fmt.Errorf("matches_total %d != %d matches listed", ans.MatchesTotal, len(ans.Matches))
	}
	if ans.Var != req.spec.name {
		return fmt.Errorf("response is for var %q, asked %q", ans.Var, req.spec.name)
	}
	spec := req.spec
	lo, hi := make([]int, len(spec.shape)), []int(spec.shape)
	if req.wire.SC != nil {
		lo, hi = req.wire.SC.Lo, req.wire.SC.Hi
	}
	vmin, vmax := math.Inf(-1), math.Inf(1)
	if req.wire.VC != nil {
		vmin, vmax = *req.wire.VC.Min, *req.wire.VC.Max
	}
	got := ans.Matches
	next := 0
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
	}
	forEachInBox(spec.shape, lo, hi, func(lin int64) {
		if firstErr != nil {
			return
		}
		v := spec.data[lin]
		margin := req.relTol * math.Abs(v)
		returned := next < len(got) && got[next].Index == lin
		if !returned {
			if v >= vmin+margin && v <= vmax-margin {
				fail("point %d (value %v) qualifies but was not returned", lin, v)
			}
			return
		}
		m := got[next]
		next++
		if v < vmin-margin || v > vmax+margin {
			fail("point %d (value %v) was returned but is outside [%v,%v]", lin, v, vmin, vmax)
			return
		}
		switch {
		case req.wire.IndexOnly:
			if m.Value != 0 { //mlocvet:ignore floatcmp -- index-only matches carry the literal zero value, not a computed one
				fail("index-only match %d carries value %v", lin, m.Value)
			}
		case req.relTol == 0: //mlocvet:ignore floatcmp -- zero is the literal "exact" marker set by the request generator
			if math.Float64bits(m.Value) != math.Float64bits(v) {
				fail("point %d: value %v, want bit-equal %v", lin, m.Value, v)
			}
		default:
			if math.Abs(m.Value-v) > margin {
				fail("point %d: value %v is off %v by more than %v", lin, m.Value, v, margin)
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	if next != len(got) {
		return fmt.Errorf("match %d (index %d) is outside the queried region or out of order", next, got[next].Index)
	}
	return nil
}

// respTotals sums the counters responses report about themselves over
// the verify pass. At one client every field but the measured-CPU
// virtual components repeats exactly for a given seed.
type respTotals struct {
	ops         int
	matches     int64
	bins        int64
	pruned      int64
	covered     int64
	nodes       int64
	blocks      int64
	bytesRead   int64
	virtIO      float64
	virtDecomp  float64
	virtRecon   float64
	virtTotal   float64
	shards      int64
	skewMS      float64
	respBytes   int64
	routedCount int
}

func (t *respTotals) add(ans *answer, bodyLen int) {
	t.ops++
	t.matches += int64(ans.MatchesTotal)
	t.bins += int64(ans.BinsAccessed)
	t.pruned += int64(ans.BinsPruned)
	t.covered += int64(ans.BinsCovered)
	t.nodes += int64(ans.IndexNodesRead)
	t.blocks += int64(ans.BlocksRead)
	t.bytesRead += ans.BytesRead
	t.virtIO += ans.Time.IO
	t.virtDecomp += ans.Time.Decompress
	t.virtRecon += ans.Time.Reconstruct
	t.virtTotal += ans.Time.Total
	t.respBytes += int64(bodyLen)
	if len(ans.Shards) > 0 {
		t.routedCount++
		t.shards += int64(len(ans.Shards))
		fastest, slowest := math.Inf(1), 0.0
		for _, s := range ans.Shards {
			fastest = math.Min(fastest, s.MS)
			slowest = math.Max(slowest, s.MS)
		}
		t.skewMS += slowest - fastest
	}
}
