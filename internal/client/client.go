// Package client is the one place that reads an mlocd response body.
// The router's scatter and bootstrap, the health checker's probe,
// mlocctl and mloclint all talk to a peer that decides how many bytes
// its body yields, so the discipline lives here once: every read is
// length-bounded, a non-200 answer becomes a *StatusError carrying the
// JSON error envelope's message (itself bounded), and the body is
// closed on every path.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Read caps for Do's limit: a result payload, metrics scrape or trace
// dump may be large; a metadata listing never is. Error envelopes are
// always read under MaxMetaBytes.
const (
	MaxResultBytes = 64 << 20
	MaxMetaBytes   = 1 << 20
)

// BaseURL normalizes a node address into a URL prefix without a
// trailing slash; bare host:port addresses get the http scheme.
func BaseURL(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/")
}

// StatusError is a non-200 answer.
type StatusError struct {
	Code   int
	Status string // the status line, e.g. "503 Service Unavailable"
	// Message is the error envelope's "error" member; empty when the body
	// was not an envelope or exceeded MaxMetaBytes.
	Message string
	// RetryAfter is the Retry-After header as sent; load shedding sets it.
	RetryAfter string
}

// Error is the status line, followed by the envelope's message if any.
func (e *StatusError) Error() string {
	if e.Message == "" {
		return "server returned " + e.Status
	}
	return "server returned " + e.Status + ": " + e.Message
}

// NewPool returns a client for calls to a fixed set of peers: one
// transport, cloned from http.DefaultTransport, whose idle pool keeps
// perHost connections to each of them (DefaultTransport keeps two), so
// up to perHost concurrent calls to a peer reuse their connections
// instead of dialling new ones.
func NewPool(peers, perHost int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = perHost
	t.MaxIdleConns = peers * perHost
	return &http.Client{Transport: t}
}

// NewRequest builds a request to an mlocd endpoint; a non-nil body is
// sent as JSON.
func NewRequest(ctx context.Context, method, url string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return req, nil
}

// Do sends req and hands a 200 response's header and body — the body
// cut off after limit bytes — to read; a nil read ignores the body.
// Any other status is returned as a *StatusError. What the reader
// leaves of the body, up to MaxMetaBytes, is read and discarded before
// the body is closed: a decoder stops after its value, before the
// chunked body's end, and the transport reuses a connection only once
// its body has been read to the end.
func Do(hc *http.Client, req *http.Request, limit int64, read func(http.Header, io.Reader) error) error {
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Deferred after Close, so it runs first. A failed drain only costs
	// the connection.
	defer io.Copy(io.Discard, io.LimitReader(resp.Body, MaxMetaBytes))
	if resp.StatusCode != http.StatusOK {
		se := &StatusError{Code: resp.StatusCode, Status: resp.Status, RetryAfter: resp.Header.Get("Retry-After")}
		var envelope struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, MaxMetaBytes)).Decode(&envelope) == nil {
			se.Message = envelope.Error
		}
		return se
	}
	if read == nil {
		return nil
	}
	return read(resp.Header, io.LimitReader(resp.Body, limit))
}

// JSON is Do with the body decoded into out; a body that is corrupt, or
// cut short by limit, is an error.
func JSON(hc *http.Client, req *http.Request, limit int64, out any) error {
	return Do(hc, req, limit, func(_ http.Header, body io.Reader) error {
		if err := json.NewDecoder(body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s: corrupt or undecodable response: %w", req.URL.Path, err)
		}
		return nil
	})
}
