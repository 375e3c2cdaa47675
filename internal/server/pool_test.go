package server

import (
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestEncodeBufReturnedToPool: WriteResult takes its 64 KiB buffer
// from encodeBufPool and must put it back, or every answer allocates
// one. With one P and the collector off, the buffer Put before a write
// is the one Get returns after it.
func TestEncodeBufReturnedToPool(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of what is Put under the race detector")
	}
	r := &ResultWire{Var: "phi", Matches: []MatchWire{{Index: 3, Value: 1.5}}, MatchesTotal: 1}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.GC() // empties the pool and its victim cache
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	buf := make([]byte, 0, encodeBufSize)
	warm := &buf
	encodeBufPool.Put(warm)
	if err := WriteResult(httptest.NewRecorder(), r, false, nil); err != nil {
		t.Fatal(err)
	}
	if got := encodeBufPool.Get(); got != any(warm) {
		t.Fatal("WriteResult did not put its buffer back into encodeBufPool")
	}
}
