// Package fault injects failures into a data node's HTTP surface so
// cluster robustness — failover, hedging, partial results — can be
// exercised deterministically from tests and from `mlocctl cluster
// fault` against a live cluster.
//
// An Injector is HTTP middleware (Wrap) plus an admin endpoint
// (AdminHandler, mounted at /cluster/fault outside the wrapped
// surface, so a "killed" node can still be revived). Modes:
//
//   - kill: every wrapped request aborts its connection with no
//     response, exactly what a crashed process looks like to callers.
//   - delay: every wrapped request is held for a fixed duration before
//     being served — a slow link or an overloaded node. The hold
//     respects the request context, so a router that hedges or times
//     out does not pin the node's handler.
//   - corrupt: responses are served with their body bytes damaged, the
//     on-the-wire face of a flipped block; callers must detect the
//     damage (JSON decode failure) and treat the shard as failed.
package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mloc/internal/server"
)

// Mode is a fault-injection behavior.
type Mode string

// The injectable behaviors. Off is the zero state: requests pass
// through untouched.
const (
	Off     Mode = "off"
	Kill    Mode = "kill"
	Delay   Mode = "delay"
	Corrupt Mode = "corrupt"
)

// ParseMode validates a mode string from a CLI or admin request.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case Off, Kill, Delay, Corrupt:
		return Mode(s), nil
	}
	return "", fmt.Errorf("fault: unknown mode %q (want off, kill, delay, or corrupt)", s)
}

// Injector holds the active fault state. The zero value is not usable;
// create with New. Safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	mode  Mode
	delay time.Duration
}

// New returns an injector in the Off state.
func New() *Injector { return &Injector{mode: Off} }

// Set activates a mode. Delay requires a positive duration; the other
// modes ignore it.
func (in *Injector) Set(mode Mode, delay time.Duration) error {
	if _, err := ParseMode(string(mode)); err != nil {
		return err
	}
	if mode == Delay && delay <= 0 {
		return fmt.Errorf("fault: delay mode requires a positive duration")
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.mode = mode
	in.delay = delay
	return nil
}

// State returns the active mode and delay.
func (in *Injector) State() (Mode, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.mode, in.delay
}

// Wrap applies the active fault to every request of next.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mode, delay := in.State()
		switch mode {
		case Kill:
			// net/http recognizes ErrAbortHandler and drops the
			// connection without writing a response — the closest an
			// in-process injector gets to a dead node.
			panic(http.ErrAbortHandler)
		case Delay:
			// A slow node has taken the call: read the request first,
			// bounded as the service frame bounds it (a longer body
			// keeps its excess byte, so the frame still refuses it), so
			// the caller is not left holding a POST for the whole delay.
			body, err := io.ReadAll(io.LimitReader(r.Body, server.MaxBodyBytes+1))
			if err != nil {
				panic(http.ErrAbortHandler)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-r.Context().Done():
				panic(http.ErrAbortHandler)
			case <-t.C:
			}
			next.ServeHTTP(w, r)
		case Corrupt:
			rec := &recorder{header: make(http.Header), status: http.StatusOK}
			next.ServeHTTP(rec, r)
			body := corruptBytes(rec.body.Bytes())
			copyHeader(w.Header(), rec.header)
			w.WriteHeader(rec.status)
			if _, err := w.Write(body); err != nil {
				_ = err //mlocvet:ignore uncheckederr -- response already committed; a mid-write disconnect has no recovery
			}
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// recorder buffers a response so Corrupt can damage it before it hits
// the wire.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }
func (r *recorder) WriteHeader(code int) {
	r.status = code
}
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// corruptBytes damages a payload the way a flipped storage block
// would: every third byte is XORed, which reliably breaks JSON
// framing, not just a value here or there.
func corruptBytes(b []byte) []byte {
	out := append([]byte(nil), b...)
	for i := 0; i < len(out); i += 3 {
		out[i] ^= 0xA5
	}
	return out
}

// stateWire is the admin endpoint's request and response body.
type stateWire struct {
	Mode    string `json:"mode"`
	DelayMS int64  `json:"delay_ms,omitempty"`
}

// AdminHandler serves the fault state: GET returns it, POST replaces
// it with {"mode": "...", "delay_ms": N}. Mount it outside Wrap so a
// killed node can be revived.
func (in *Injector) AdminHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			in.writeState(w)
		case http.MethodPost:
			var req stateWire
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Sprintf("fault: decoding request: %v", err))
				return
			}
			mode, err := ParseMode(req.Mode)
			if err != nil {
				writeErr(w, http.StatusBadRequest, err.Error())
				return
			}
			if err := in.Set(mode, time.Duration(req.DelayMS)*time.Millisecond); err != nil {
				writeErr(w, http.StatusBadRequest, err.Error())
				return
			}
			in.writeState(w)
		default:
			w.Header().Set("Allow", "GET, POST")
			writeErr(w, http.StatusMethodNotAllowed, "GET or POST required")
		}
	})
}

func (in *Injector) writeState(w http.ResponseWriter) {
	mode, delay := in.State()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(stateWire{Mode: string(mode), DelayMS: delay.Milliseconds()}); err != nil {
		_ = err //mlocvet:ignore uncheckederr -- response already committed; a mid-write disconnect has no recovery
	}
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(map[string]string{"error": msg}); err != nil {
		_ = err //mlocvet:ignore uncheckederr -- response already committed; a mid-write disconnect has no recovery
	}
}
