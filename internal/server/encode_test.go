package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// stdlibJSON is the reference: what the parent of the append encoder
// wrote for a response.
func stdlibJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// edgeFloats are the values where encoding/json switches format or
// trims the exponent.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 10.625, 123456789.125,
	1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 2.5e-100,
	1e20, 9.999e20, 1e21, -1e21, 1.25e22, 1e100,
	math.SmallestNonzeroFloat64, 2.2250738585072009e-308, math.MaxFloat64, -math.MaxFloat64,
}

func randFloat(r *rand.Rand) float64 {
	switch r.Intn(3) {
	case 0:
		return edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		return 10 + r.Float64() // the synthetic fields' range
	}
	for {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randInt(r *rand.Rand) int {
	if r.Intn(2) == 0 {
		return 0 // omitempty fields absent
	}
	return r.Intn(1 << 20)
}

func randWire(r *rand.Rand) ResultWire {
	names := []string{"phi", "", "temp_col", `quo"ted\name`, "<a&b>", "ünï", "tab\tname\n", " "}
	w := ResultWire{
		Var:            names[r.Intn(len(names))],
		MatchesTotal:   randInt(r),
		Truncated:      r.Intn(2) == 0,
		BinsAccessed:   randInt(r),
		BlocksRead:     randInt(r),
		BytesRead:      int64(randInt(r)) << uint(r.Intn(30)),
		CacheHits:      randInt(r),
		BinsPruned:     randInt(r),
		BinsCovered:    randInt(r),
		IndexNodesRead: randInt(r),
		Time:           TimeWire{IO: randFloat(r), Decompress: randFloat(r), Reconstruct: randFloat(r), Total: randFloat(r)},
		QueuedMS:       randFloat(r),
	}
	if r.Intn(2) == 0 {
		w.TraceID = r.Uint64()
	}
	if r.Intn(3) == 0 {
		trace, _ := json.Marshal(map[string]any{"v": 1, "root": map[string]any{"name": "query <&>", "virt_s": randFloat(r)}})
		w.Trace = trace
	}
	switch r.Intn(4) {
	case 0: // nil: "matches":null
	case 1:
		w.Matches = []MatchWire{}
	default:
		w.Matches = make([]MatchWire, r.Intn(40))
		for i := range w.Matches {
			w.Matches[i] = MatchWire{Index: r.Int63n(1 << 40), Value: randFloat(r)}
		}
	}
	return w
}

// zeroValues is what a client decodes an index-only answer to.
func zeroValues(w ResultWire) ResultWire {
	if w.Matches != nil {
		ms := make([]MatchWire, len(w.Matches))
		for i, m := range w.Matches {
			ms[i] = MatchWire{Index: m.Index}
		}
		w.Matches = ms
	}
	return w
}

// TestAppendResultJSONMatchesEncodingJSON is the wire-compatibility
// property: for value answers the append encoder's bytes are
// encoding/json's, and an index-only body decodes to the same response
// with zero values.
func TestAppendResultJSONMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	wires := []ResultWire{
		{},
		{Var: "phi", Matches: []MatchWire{}},
		{Var: "phi", Matches: []MatchWire{{Index: math.MaxInt64, Value: math.Copysign(0, -1)}, {Index: math.MinInt64, Value: 1e21}}},
	}
	for _, f := range edgeFloats {
		wires = append(wires, ResultWire{Var: "edge", Matches: []MatchWire{{Index: 7, Value: f}, {Index: 8, Value: -f}}, QueuedMS: f})
	}
	for i := 0; i < 2000; i++ {
		wires = append(wires, randWire(r))
	}
	for i := range wires {
		w := &wires[i]
		got, err := AppendResultJSON(nil, w, false)
		if err != nil {
			t.Fatalf("wire %d: %v", i, err)
		}
		if want := stdlibJSON(t, w); !bytes.Equal(got, want) {
			t.Fatalf("wire %d: append encoder wrote\n%s\nencoding/json writes\n%s", i, got, want)
		}

		lean, err := AppendResultJSON(nil, w, true)
		if err != nil {
			t.Fatalf("wire %d index-only: %v", i, err)
		}
		if bytes.Contains(lean, []byte(`"value"`)) {
			t.Fatalf("wire %d: index-only body carries a value field: %s", i, lean)
		}
		var back ResultWire
		if err := json.Unmarshal(lean, &back); err != nil {
			t.Fatalf("wire %d: index-only body does not decode: %v\n%s", i, err, lean)
		}
		if want := zeroValues(*w); !reflect.DeepEqual(back, want) {
			t.Fatalf("wire %d: index-only body decodes to\n%+v\nwant\n%+v", i, back, want)
		}
	}
}

func TestAppendResultJSONRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := ResultWire{Matches: []MatchWire{{Index: 1, Value: f}}}
		if _, err := AppendResultJSON(nil, &w, false); err == nil {
			t.Errorf("value %v encoded without error", f)
		}
		if _, err := AppendResultJSON(nil, &w, true); err != nil {
			t.Errorf("index-only encoding looked at value %v: %v", f, err)
		}
	}
}

// chunkRecorder is a ResponseWriter that keeps every Write apart.
type chunkRecorder struct {
	*httptest.ResponseRecorder
	chunks [][]byte
}

func (c *chunkRecorder) Write(b []byte) (int, error) {
	c.chunks = append(c.chunks, bytes.Clone(b))
	return c.ResponseRecorder.Write(b)
}

// TestWriteResultChunksAndAnnotations drives bodies much larger than
// the pooled buffer — long match lists, a long variable name, a large
// span tree — with and without the router's trailing members: no write
// exceeds the buffer, and the concatenation is what encoding/json
// writes for the same response.
func TestWriteResultChunksAndAnnotations(t *testing.T) {
	type annotations struct {
		Degraded bool     `json:"degraded"`
		Shards   []string `json:"shards"`
	}
	type routed struct {
		ResultWire
		annotations
	}
	r := rand.New(rand.NewSource(2))
	bigTrace, err := json.Marshal(map[string]string{"pad": strings.Repeat("span ", 40000)})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 900, 1100, 5000, 70000} {
		for _, indexOnly := range []bool{false, true} {
			w := randWire(r)
			w.Var = strings.Repeat("v", r.Intn(3)*40000) + "phi"
			w.Trace = nil
			if n%2 == 0 {
				w.Trace = bigTrace
			}
			w.Matches = make([]MatchWire, n)
			for i := range w.Matches {
				w.Matches[i] = MatchWire{Index: int64(i) * 3}
				if !indexOnly {
					w.Matches[i].Value = randFloat(r)
				}
			}
			for _, extra := range []*annotations{nil, {Degraded: true, Shards: []string{"a<b", strings.Repeat("s", 70000)}}} {
				rec := &chunkRecorder{ResponseRecorder: httptest.NewRecorder()}
				var want, extraJSON []byte
				if extra == nil {
					want = stdlibJSON(t, &w)
				} else {
					want = stdlibJSON(t, routed{w, *extra})
					if extraJSON, err = json.Marshal(extra); err != nil {
						t.Fatal(err)
					}
				}
				if err := WriteResult(rec, &w, indexOnly, extraJSON); err != nil {
					t.Fatal(err)
				}
				if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
					t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
				}
				for _, c := range rec.chunks {
					if len(c) > encodeBufSize {
						t.Fatalf("n=%d: one write of %d bytes exceeds the %d-byte buffer", n, len(c), encodeBufSize)
					}
				}
				got := rec.Body.Bytes()
				if indexOnly {
					// The reference writes "value":0 for every match.
					want = bytes.ReplaceAll(want, []byte(`,"value":0}`), []byte(`}`))
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d indexOnly=%v extra=%v: body differs from encoding/json's (%d vs %d bytes)",
						n, indexOnly, extra != nil, len(got), len(want))
				}
			}
		}
	}
}

// FuzzAppendResultJSON builds a response from fuzzed bytes and checks
// that the append-encoded body decodes back to it, and — for value
// answers without a span tree, which encoding/json would re-escape —
// that it is byte-identical to encoding/json's.
func FuzzAppendResultJSON(f *testing.F) {
	seed := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1e21))
	seed = binary.LittleEndian.AppendUint64(seed, 1<<63)
	f.Add("phi", seed, false, []byte(`{"v":1}`))
	f.Add(`q"<\`, bytes.Repeat([]byte{0xff, 0x01}, 40), true, []byte(` [1, 2] `))
	f.Add("", []byte{}, false, []byte(`{`))
	f.Fuzz(func(t *testing.T, name string, data []byte, indexOnly bool, trace []byte) {
		if !utf8.ValidString(name) {
			t.Skip("encoding/json replaces invalid UTF-8, so the name would not round-trip")
		}
		next := func() uint64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			return binary.LittleEndian.Uint64(b[:])
		}
		finite := func() float64 {
			if f := math.Float64frombits(next()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
			return 0
		}
		w := ResultWire{
			Var:            name,
			MatchesTotal:   int(int32(next())),
			Truncated:      next()&1 == 1,
			BinsAccessed:   int(int32(next())),
			BytesRead:      int64(next()),
			BinsPruned:     int(int16(next())),
			IndexNodesRead: int(int8(next())),
			Time:           TimeWire{IO: finite(), Total: finite()},
			QueuedMS:       finite(),
			TraceID:        next(),
			Matches:        []MatchWire{},
		}
		for len(data) > 0 {
			m := MatchWire{Index: int64(next())}
			if !indexOnly {
				m.Value = finite()
			}
			w.Matches = append(w.Matches, m)
		}
		if trace = bytes.TrimSpace(trace); json.Valid(trace) {
			w.Trace = trace
		}
		body, err := AppendResultJSON(nil, &w, indexOnly)
		if err != nil {
			t.Fatal(err)
		}
		var back ResultWire
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatalf("body does not decode: %v\n%s", err, body)
		}
		if !reflect.DeepEqual(back, w) {
			t.Fatalf("decoded\n%+v\nwant\n%+v\nbody %s", back, w, body)
		}
		if !indexOnly && len(w.Trace) == 0 {
			if want := stdlibJSON(t, &w); !bytes.Equal(body, want) {
				t.Fatalf("append encoder wrote\n%s\nencoding/json writes\n%s", body, want)
			}
		}
	})
}

// AppendResultJSON appends the body WriteResult sends for r to dst,
// through the same encoder with no writer behind it, so the tests can
// compare bodies byte for byte.
func AppendResultJSON(dst []byte, r *ResultWire, indexOnly bool) ([]byte, error) {
	e := resultEncoder{buf: dst}
	e.result(r, indexOnly, nil)
	return e.buf, e.err
}
