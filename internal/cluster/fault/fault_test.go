package fault

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// okHandler serves a small JSON body the tests can decode.
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, err := io.WriteString(w, `{"answer":42,"pad":"0123456789abcdef"}`); err != nil {
			_ = err
		}
	})
}

func TestOffPassesThrough(t *testing.T) {
	ts := httptest.NewServer(New().Wrap(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Answer int `json:"answer"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Answer != 42 {
		t.Fatalf("decode = %v, answer = %d", err, out.Answer)
	}
}

func TestKillDropsConnection(t *testing.T) {
	in := New()
	if err := in.Set(Kill, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	if _, err := http.Get(ts.URL); err == nil {
		t.Fatal("killed node answered a request")
	}
	// Revive: the injector is shared state, not a dead process.
	if err := in.Set(Off, 0); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatalf("revived node still failing: %v", err)
	}
	resp.Body.Close()
}

func TestDelayHoldsThenServes(t *testing.T) {
	in := New()
	if err := in.Set(Delay, 80*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	start := time.Now()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("delayed request returned in %v, want >= 80ms", elapsed)
	}
}

func TestDelayRespectsContext(t *testing.T) {
	in := New()
	if err := in.Set(Delay, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	client := &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	if _, err := client.Get(ts.URL); err == nil {
		t.Fatal("expected client timeout under a 10s delay")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled request held the handler for %v", elapsed)
	}
}

func TestCorruptBreaksDecode(t *testing.T) {
	in := New()
	if err := in.Set(Corrupt, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(in.Wrap(okHandler()))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err == nil {
		t.Fatal("corrupted body decoded cleanly")
	}
}

func TestAdminHandlerRoundTrip(t *testing.T) {
	in := New()
	ts := httptest.NewServer(in.AdminHandler())
	defer ts.Close()

	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(`{"mode":"delay","delay_ms":50}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("set status %d", resp.StatusCode)
	}
	mode, delay := in.State()
	if mode != Delay || delay != 50*time.Millisecond {
		t.Fatalf("state = %v %v", mode, delay)
	}

	get, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer get.Body.Close()
	var st struct {
		Mode    string `json:"mode"`
		DelayMS int64  `json:"delay_ms"`
	}
	if err := json.NewDecoder(get.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Mode != "delay" || st.DelayMS != 50 {
		t.Fatalf("reported state = %+v", st)
	}

	for _, bad := range []string{`{"mode":"nope"}`, `{"mode":"delay"}`, `{"mode":"off","extra":1}`, `not json`} {
		resp, err := http.Post(ts.URL, "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q got status %d", bad, resp.StatusCode)
		}
	}
}

// TestAdminHandlerBoundsBody: a POST body past the 4 KiB cap is
// refused with 400 and leaves the fault state as it was, even when the
// whole body would decode to a valid state.
func TestAdminHandlerBoundsBody(t *testing.T) {
	in := New()
	ts := httptest.NewServer(in.AdminHandler())
	defer ts.Close()

	body := `{` + strings.Repeat(" ", 5000) + `"mode":"kill"}`
	resp, err := http.Post(ts.URL, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%d-byte body got status %d, want %d", len(body), resp.StatusCode, http.StatusBadRequest)
	}
	if mode, _ := in.State(); mode != Off {
		t.Fatalf("oversized body changed the mode to %v", mode)
	}
}

func TestParseModeAndSetErrors(t *testing.T) {
	if _, err := ParseMode("boom"); err == nil {
		t.Error("unknown mode parsed")
	}
	if err := New().Set(Delay, 0); err == nil {
		t.Error("delay without duration accepted")
	}
	if err := New().Set(Mode("x"), 0); err == nil {
		t.Error("bogus mode set")
	}
}

// eofReader is a request body that records when it was read to its end.
type eofReader struct {
	r    io.Reader
	done chan struct{}
}

func (e *eofReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF {
		select {
		case <-e.done:
		default:
			close(e.done)
		}
	}
	return n, err
}

// TestDelayDrainsRequestBody: a delayed POST's body is read to its end
// before the delay starts, and the wrapped handler still gets all of it.
func TestDelayDrainsRequestBody(t *testing.T) {
	in := New()
	if err := in.Set(Delay, 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const payload = `{"var":"t","ranks":2}`
	got := make(chan string, 1)
	h := in.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		got <- string(b)
	}))
	body := &eofReader{r: strings.NewReader(payload), done: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/query", body)
	served := make(chan struct{})
	go func() {
		defer close(served)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	select {
	case <-body.done:
	case <-time.After(150 * time.Millisecond):
		t.Fatal("request body not consumed while the delay runs")
	}
	select {
	case <-served:
		t.Fatal("handler finished before the delay elapsed")
	default:
	}
	<-served
	if b := <-got; b != payload {
		t.Fatalf("wrapped handler read %q, want %q", b, payload)
	}
}
