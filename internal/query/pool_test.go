package query

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSortScratchReturnedToPool: a radix sort takes its buffer from
// sortScratchPool and must put it back, or every merge allocates one
// as long as its answer. With one P and the collector off, the scratch
// Put before a sort is the one Get returns after it.
func TestSortScratchReturnedToPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what is Put under the race detector")
	}
	m := make([]Match, 4*radixMinLen)
	for i := range m {
		m[i].Index = int64(len(m) - i)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC() // empties the pool and its victim cache
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm := new(sortScratch)
	sortScratchPool.Put(warm)
	SortMatches(m)
	if got := sortScratchPool.Get(); got != warm {
		t.Fatal("SortMatches did not put its scratch back into sortScratchPool")
	}
	if m[0].Index != 1 || m[len(m)-1].Index != int64(len(m)) {
		t.Fatalf("sorted %d..%d, want 1..%d", m[0].Index, m[len(m)-1].Index, len(m))
	}
}
