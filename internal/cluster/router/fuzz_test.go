package router

import (
	"bytes"
	"encoding/json"
	"testing"

	"mloc/internal/query"
	"mloc/internal/server"
)

// FuzzNodeResult: a data node's /query answer is decoded, converted
// with ToResult and merged exactly as post and gather do. Any bytes
// must either fail to decode or merge without a panic, into a list of
// exactly the matches sent and a total no smaller than that list; the
// claimed matches_total sizes nothing.
func FuzzNodeResult(f *testing.F) {
	f.Add([]byte(`{"var":"phi","matches":[{"index":3,"value":1.5},{"index":1,"value":2}],"matches_total":2}`))
	f.Add([]byte(`{"var":"phi","matches":[{"index":5}],"matches_total":1099511627776,"truncated":true}`))
	f.Add([]byte(`{"var":"phi","matches":[],"matches_total":-7}`))
	f.Add([]byte(`{"var":"phi","matches":null,"time":{"io":-1,"total":1e308},"bins_accessed":-3}`))
	f.Add([]byte(`{"var":"phi","matches":[{"index":-9223372036854775808},{"index":-9223372036854775808}]}`))
	f.Add([]byte(`{"matches":[{"index":1}],"trace":{"v":1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var res server.ResultWire
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&res); err != nil {
			return
		}
		other := server.ResultWire{Matches: []server.MatchWire{{Index: 0}}}
		merged := query.MergeResults([]*query.Result{res.ToResult(), nil, other.ToResult()})
		if want := len(res.Matches) + 1; len(merged.Matches) != want {
			t.Fatalf("merged %d matches, want %d", len(merged.Matches), want)
		}
		if cap(merged.Matches) != len(merged.Matches) {
			t.Fatalf("merged list has cap %d for %d matches", cap(merged.Matches), len(merged.Matches))
		}
		out := server.BuildResult("phi", merged, 4, 0)
		if len(out.Matches) > 4 {
			t.Fatalf("built answer lists %d matches over a cap of 4", len(out.Matches))
		}
	})
}
