package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mloc/internal/core"
	"mloc/internal/server"
)

// span is one timed interval of the traced pass. Spans of one request
// share req; parent is the id of the narrowest span of that request
// containing this one (0 for a root). Times are nanoseconds since the
// recorder was switched on.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

func (s *span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// spanRecorder keeps the harness's own spans in memory. It is off
// except during the traced pass, where exactly one request is in
// flight, so every span recorded between two beginRequest calls
// belongs to the same request.
type spanRecorder struct {
	on  atomic.Bool
	req atomic.Int64

	mu     sync.Mutex
	t0     time.Time
	spans  []span
	bodies [][]byte // node.handler response bodies, kept while on
}

func (r *spanRecorder) start() {
	r.mu.Lock()
	r.t0 = time.Now()
	r.mu.Unlock()
	r.on.Store(true)
}

func (r *spanRecorder) stop() { r.on.Store(false) }

func (r *spanRecorder) beginRequest() { r.req.Add(1) }

func (r *spanRecorder) add(name string, t0, t1 time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID:      len(r.spans) + 1,
		Name:    name,
		StartNS: t0.Sub(r.t0).Nanoseconds(),
		EndNS:   t1.Sub(r.t0).Nanoseconds(),
		Req:     int(r.req.Load()),
	})
	r.mu.Unlock()
}

// teeWriter copies a handler's response body aside.
type teeWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (w *teeWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	return w.ResponseWriter.Write(p)
}

// wrap puts the recorder in front of h. While the recorder is off the
// cost is one atomic load per request.
func (r *spanRecorder) wrap(name string, h http.Handler) http.Handler {
	keepBody := name == "node.handler"
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() || req.URL.Path != "/query" {
			h.ServeHTTP(w, req)
			return
		}
		var tee *teeWriter
		if keepBody {
			tee = &teeWriter{ResponseWriter: w}
			w = tee
		}
		t0 := time.Now()
		h.ServeHTTP(w, req)
		r.add(name, t0, time.Now())
		if tee != nil {
			r.mu.Lock()
			r.bodies = append(r.bodies, tee.buf.Bytes())
			r.mu.Unlock()
		}
	})
}

// resolveParents sets each span's parent by time containment within
// its request and returns the spans grouped by request.
func (r *spanRecorder) resolveParents() map[int][]*span {
	byReq := map[int][]*span{}
	for i := range r.spans {
		s := &r.spans[i]
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for _, group := range byReq {
		// Widest first, so a span's candidates precede it.
		sort.SliceStable(group, func(i, j int) bool {
			if group[i].StartNS != group[j].StartNS {
				return group[i].StartNS < group[j].StartNS
			}
			return group[i].EndNS > group[j].EndNS
		})
		for i, s := range group {
			for j := i - 1; j >= 0; j-- {
				p := group[j]
				if p.StartNS <= s.StartNS && p.EndNS >= s.EndNS {
					s.Parent = p.ID
					break
				}
			}
		}
	}
	return byReq
}

// selfMS is a span's duration minus the part of it its direct children
// cover (their union, since shard calls overlap).
func selfMS(s *span, group []*span) float64 {
	var kids []*span
	for _, c := range group {
		if c.Parent == s.ID {
			kids = append(kids, c)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	covered, end := int64(0), s.StartNS
	for _, c := range kids {
		lo, hi := c.StartNS, c.EndNS
		if lo < end {
			lo = end
		}
		if hi > lo {
			covered += hi - lo
			end = hi
		}
	}
	return float64(s.EndNS-s.StartNS-covered) / 1e6
}

func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close() //mlocvet:ignore uncheckederr -- already failing with the encode error
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //mlocvet:ignore uncheckederr -- already failing with the flush error
		return err
	}
	return f.Close()
}

// replayTotals sums the replayed stages of the traced requests.
type replayTotals struct {
	ops                                   int
	parse, engine, build, encode, explain time.Duration
	matches                               int64
}

// replay re-runs one traced request stage by stage through the public
// functions the server handler calls, on a second handle of the same
// stores with its own cache fed the same sequence, and records a
// replay span tree under the request's id. With t == nil it only runs
// the stages, to warm the handle's cache the way the node's already is.
func (r *spanRecorder) replay(ctx context.Context, stores map[string]*core.Store, reqID int, req *request, t *replayTotals) error {
	st := stores[req.spec.name]
	t0 := time.Now()
	wire, err := server.ParseRequest(bytes.NewReader(req.body))
	if err != nil {
		return err
	}
	qreq, err := wire.ToRequest(st.Shape())
	if err != nil {
		return err
	}
	t1 := time.Now()
	res, err := st.QueryContext(ctx, qreq, defaultRanks)
	if err != nil {
		return err
	}
	t2 := time.Now()
	out := server.BuildResult(wire.Var, res, maxMatches, 0)
	t3 := time.Now()
	if err := json.NewEncoder(io.Discard).Encode(&out); err != nil {
		return err
	}
	t4 := time.Now()
	if t == nil {
		return nil
	}
	r.req.Store(int64(reqID))
	r.add("replay", t0, t4)
	r.add("replay.parse", t0, t1)
	r.add("replay.engine", t1, t2)
	r.add("replay.build_result", t2, t3)
	r.add("replay.encode", t3, t4)
	if _, err := st.Explain(qreq); err != nil {
		return err
	}
	t.explain += time.Since(t4)
	t.ops++
	t.parse += t1.Sub(t0)
	t.engine += t2.Sub(t1)
	t.build += t3.Sub(t2)
	t.encode += t4.Sub(t3)
	t.matches += int64(len(out.Matches))
	return nil
}
