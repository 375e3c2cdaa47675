package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBaseURL(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:8080":         "http://127.0.0.1:8080",
		"http://127.0.0.1:8080/": "http://127.0.0.1:8080",
		"https://x.example":      "https://x.example",
	} {
		if got := BaseURL(in); got != want {
			t.Errorf("BaseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// serve starts a test server and returns a GET request for it.
func serve(t *testing.T, h http.HandlerFunc) *http.Request {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	req, err := NewRequest(context.Background(), http.MethodGet, ts.URL+"/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestResultCap: a body past the limit errors cleanly instead of being
// buffered — at the result cap every caller passes, and at a small one.
// Whitespace padding keeps the handler cheap: the JSON decoder skips it
// but never buffers it.
func TestResultCap(t *testing.T) {
	pad := strings.Repeat(" ", 1<<20)
	padded := func(total int64) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "{")
			for written := int64(0); written <= total; written += int64(len(pad)) {
				if _, err := io.WriteString(w, pad); err != nil {
					return // the client hung up at its cap; expected
				}
			}
			io.WriteString(w, `"ok":true}`)
		}
	}
	var out map[string]any
	err := JSON(http.DefaultClient, serve(t, padded(MaxResultBytes)), MaxResultBytes, &out)
	if err == nil || !strings.Contains(err.Error(), "decoding /stats") || !strings.Contains(err.Error(), "undecodable") {
		t.Fatalf("JSON past MaxResultBytes: err = %v, want a decoding error", err)
	}
	if err := JSON(http.DefaultClient, serve(t, padded(MaxMetaBytes)), MaxMetaBytes, &out); err == nil {
		t.Fatal("JSON decoded a body past MaxMetaBytes without error")
	}
	if err := JSON(http.DefaultClient, serve(t, padded(MaxMetaBytes)), MaxResultBytes, &out); err != nil || out["ok"] != true {
		t.Fatalf("JSON under the cap: out = %v, err = %v", out, err)
	}
}

// TestStatusError: a non-200 answer surfaces the envelope's message and
// the Retry-After header on a *StatusError, and read is never called.
func TestStatusError(t *testing.T) {
	req := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"no query slot within wait budget","status":"503"}`)
	})
	err := Do(http.DefaultClient, req, MaxResultBytes, func(http.Header, io.Reader) error {
		t.Error("read called on a 503")
		return nil
	})
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *StatusError", err)
	}
	if se.Code != http.StatusServiceUnavailable || se.RetryAfter != "2" || se.Message != "no query slot within wait budget" {
		t.Errorf("status error = %+v", se)
	}
	if want := "server returned 503 Service Unavailable: no query slot within wait budget"; err.Error() != want {
		t.Errorf("message %q, want %q", err.Error(), want)
	}
}

// TestEnvelopeCap: an error envelope past MaxMetaBytes yields the bare
// status line — megabytes of peer-controlled text are neither buffered
// nor echoed.
func TestEnvelopeCap(t *testing.T) {
	huge := strings.Repeat("x", 2<<20)
	req := serve(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"`+huge+`"}`)
	})
	err := JSON(http.DefaultClient, req, MaxResultBytes, &struct{}{})
	var se *StatusError
	if !errors.As(err, &se) || se.Message != "" {
		t.Fatalf("err = %.200v, want a *StatusError without a message", err)
	}
	if len(err.Error()) > 200 || !strings.Contains(err.Error(), "server returned 500") {
		t.Fatalf("message is %d bytes: %.200s", len(err.Error()), err.Error())
	}
}

// TestDoWithoutRead: a nil read checks the status and ignores the body
// (the health probe), and NewRequest marks a body as JSON.
func TestDoWithoutRead(t *testing.T) {
	var gotType, gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		gotType, gotBody = r.Header.Get("Content-Type"), string(b)
		io.WriteString(w, "not json")
	}))
	t.Cleanup(ts.Close)
	req, err := NewRequest(context.Background(), http.MethodPost, ts.URL+"/query", []byte(`{"var":"phi"}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := Do(http.DefaultClient, req, 0, nil); err != nil {
		t.Fatalf("Do with nil read: %v", err)
	}
	if gotType != "application/json" || gotBody != `{"var":"phi"}` {
		t.Errorf("server saw Content-Type %q body %q", gotType, gotBody)
	}
}

// TestDoBoundsDrain: a peer that streams a 200 body without end must not
// hold Do. What read leaves of the body is drained only up to
// MaxMetaBytes before the body is closed, with no read and with a read
// that stops after one byte.
func TestDoBoundsDrain(t *testing.T) {
	reads := map[string]func(http.Header, io.Reader) error{
		"nil read": nil,
		"one byte": func(_ http.Header, body io.Reader) error {
			_, err := io.ReadFull(body, make([]byte, 1))
			return err
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			stop := make(chan struct{})
			req := serve(t, func(w http.ResponseWriter, r *http.Request) {
				chunk := []byte(strings.Repeat("x", 32<<10))
				for {
					select {
					case <-stop:
						return
					case <-r.Context().Done():
						return
					default:
					}
					if _, err := w.Write(chunk); err != nil {
						return // the client closed the body
					}
				}
			})
			// Registered after serve's, so it runs first and lets the
			// server's Close finish even when Do never returns.
			t.Cleanup(func() { close(stop) })
			done := make(chan error, 1)
			go func() { done <- Do(http.DefaultClient, req, MaxResultBytes, read) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("Do: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Do still draining an endless body after 5 s")
			}
		})
	}
}
