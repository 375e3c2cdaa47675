package server

import (
	"bytes"
	"strings"
	"testing"

	"mloc/internal/grid"
)

// FuzzDecodeRequest hammers the strict JSON request decoder with
// malformed shapes: the contract is that ParseRequest and ToRequest
// either return an error (the handler's 400 path) or produce a request
// that passes the engine's own validation — and never panic.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"var":"phi"}`,
		`{"var":"phi","vc":{"min":-1e30,"max":1e30}}`,
		`{"var":"phi","vc":{"min":0.25,"max":0.75},"sc":{"lo":[0,0],"hi":[15,15]},"plod":4,"ranks":2}`,
		`{"var":"phi","index_only":true}`,
		`{"var":"phi","vc":{"min":2,"max":1}}`,
		`{"var":"phi","vc":{"min":null,"max":1}}`,
		`{"var":"phi","vc":{"min":"NaN","max":1}}`,
		`{"var":"phi","sc":{"lo":[-5],"hi":[3]}}`,
		`{"var":"phi","sc":{"lo":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"hi":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]}}`,
		`{"var":"phi","sc":{"lo":[0,0],"hi":[32,32]},"rows":[[0,8],[16,24]]}`,
		`{"var":"phi","sc":{"lo":[4,0],"hi":[20,32]},"rows":[[4,6],[6,9],[12,20]],"index_only":true}`,
		`{"var":"phi","rows":[[30,32]]}`,
		`{"var":"phi","rows":[]}`,
		`{"var":"phi","rows":[[8,8]]}`,
		`{"var":"phi","rows":[[16,24],[0,8]]}`,
		`{"var":"phi","rows":[[0,10],[5,20]]}`,
		`{"var":"phi","rows":[[-4,2]]}`,
		`{"var":"phi","rows":[[24,40]]}`,
		`{"var":"phi","sc":{"lo":[8,0],"hi":[16,32]},"rows":[[0,12]]}`,
		`{"var":"phi","rows":[[0,1,2]]}`,
		`{"var":"phi","rows":[[4]]}`,
		`{"var":"phi","rows":[[0,1]` + strings.Repeat(`,[0,1]`, MaxWireRows) + `]}`,
		`{"var":"phi","plod":9999999999}`,
		`{"var":"phi","ranks":-7}`,
		`{"var":"phi","selectivity":-0.5}`,
		`{"var":"` + strings.Repeat("x", 300) + `"}`,
		`{"var":"phi"}{"var":"phi"}`,
		`[1,2,3]`,
		`"phi"`,
		`{`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	shape := grid.Shape{32, 32}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ParseRequest(bytes.NewReader(data))
		if err != nil {
			return // the 400 path; any malformed input may land here
		}
		if w.Var == "" || len(w.Var) > maxVarNameLen {
			t.Fatalf("ParseRequest accepted var %q outside bounds", w.Var)
		}
		if w.PLoD < 0 || w.PLoD > 7 || w.Ranks < 0 || w.Ranks > maxWireRanks {
			t.Fatalf("ParseRequest accepted out-of-range plod=%d ranks=%d", w.PLoD, w.Ranks)
		}
		if w.Rows != nil && (len(w.Rows) == 0 || len(w.Rows) > MaxWireRows) {
			t.Fatalf("ParseRequest accepted %d row ranges", len(w.Rows))
		}
		for _, r := range w.Rows {
			if len(r) != 2 {
				t.Fatalf("ParseRequest accepted row range %v", r)
			}
		}
		req, err := w.ToRequest(shape)
		if err != nil {
			return // dimension/region mismatches are also 400s
		}
		if err := req.Validate(shape); err != nil {
			t.Fatalf("ToRequest produced a request the engine rejects: %v", err)
		}
	})
}
