package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/query"
)

// TestQueryScratchReturnedToPool: Query takes its scratch from
// queryScratchPool and must put it back, or every query pays for fresh
// rank buffers. With one P and the collector off, the scratch Put
// before a query is the one Get returns after it.
func TestQueryScratchReturnedToPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what is Put under the race detector")
	}
	st, _ := corruptStore(t)
	vc := binning.ValueConstraint{Min: -1e18, Max: 1e18}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC() // empties the pool and its victim cache
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm := new(queryScratch)
	queryScratchPool.Put(warm)
	if _, err := st.Query(&query.Request{VC: &vc}, 2); err != nil {
		t.Fatal(err)
	}
	if got := queryScratchPool.Get(); got != warm {
		t.Fatal("Query did not put its scratch back into queryScratchPool")
	}
}
