package pfs

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func testConfig() Config {
	return Config{
		NumOSTs:     4,
		StripeSize:  1024,
		SeekLatency: 0.005,
		OpenLatency: 0.001,
		ReadBW:      1e6,
		WriteBW:     1e6,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{NumOSTs: 0, StripeSize: 1, ReadBW: 1, WriteBW: 1},
		{NumOSTs: 1, StripeSize: 0, ReadBW: 1, WriteBW: 1},
		{NumOSTs: 1, StripeSize: 1, ReadBW: 0, WriteBW: 1},
		{NumOSTs: 1, StripeSize: 1, ReadBW: 1, WriteBW: 1, SeekLatency: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{})
}

func TestWriteReadRoundtrip(t *testing.T) {
	s := New(testConfig())
	clk := NewClock()
	data := bytes.Repeat([]byte("abcdefgh"), 1000)
	if err := s.WriteFile(clk, "f/a", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile(clk, "f/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip mismatch")
	}
	sz, err := s.Size("f/a")
	if err != nil || sz != int64(len(data)) {
		t.Fatalf("Size = %d, %v", sz, err)
	}
}

func TestReadAtRangeChecks(t *testing.T) {
	s := New(testConfig())
	clk := NewClock()
	if err := s.WriteFile(clk, "x", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ off, n int64 }{{-1, 10}, {0, -1}, {95, 10}, {101, 0}} {
		if _, err := s.ReadAt(clk, "x", c.off, c.n); err == nil {
			t.Errorf("ReadAt(%d,%d) accepted", c.off, c.n)
		}
	}
	if _, err := s.ReadAt(clk, "missing", 0, 0); err == nil {
		t.Error("read of missing file accepted")
	}
	if _, err := s.ReadAt(clk, "x", 100, 0); err != nil {
		t.Error("zero-length read at EOF should succeed")
	}
}

func TestAppendFile(t *testing.T) {
	s := New(testConfig())
	clk := NewClock()
	if err := s.AppendFile(clk, "a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendFile(clk, "a", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadFile(clk, "a")
	if err != nil || string(got) != "onetwo" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestVirtualTimeSequentialRead(t *testing.T) {
	// A full sequential read of a file striped across 4 OSTs at 1 MB/s
	// each should take ~bytes/(4 MB/s) plus one seek per OST.
	cfg := testConfig()
	s := New(cfg)
	w := NewClock()
	size := int64(64 * 1024)
	if err := s.WriteFile(w, "big", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	clk := NewClock()
	if _, err := s.ReadFile(clk, "big"); err != nil {
		t.Fatal(err)
	}
	perOST := float64(size) / 4 / cfg.ReadBW
	want := perOST + cfg.SeekLatency
	if math.Abs(clk.Now()-want) > 1e-9 {
		t.Fatalf("sequential read time %v, want %v", clk.Now(), want)
	}
	st := s.Stats()
	if st.Seeks != 4 {
		t.Fatalf("Seeks = %d, want 4 (one per OST)", st.Seeks)
	}
	if st.BytesRead != size {
		t.Fatalf("BytesRead = %d", st.BytesRead)
	}
}

func TestContiguousReadsAvoidSeeks(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	w := NewClock()
	if err := s.WriteFile(w, "f", make([]byte, 16384)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	clk := NewClock()
	// Stripes 0 and 4 share an OST and are CONTIGUOUS in its object
	// (object offsets [0,1024) and [1024,2048)): one seek total.
	if _, err := s.ReadAt(clk, "f", 0, 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAt(clk, "f", 4096, 1024); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Seeks; got != 1 {
		t.Fatalf("object-contiguous stripes: Seeks = %d, want 1", got)
	}
	// Stripe 12 is on the same OST but leaves a gap in object space
	// (object offset 3072 while the head sits at 2048): a second seek.
	if _, err := s.ReadAt(clk, "f", 12288, 1024); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Seeks; got != 2 {
		t.Fatalf("object-gap read: Seeks = %d, want 2", got)
	}

	s.ResetStats()
	// Contiguous continuation: read [0,1024) then [1024,2048): second
	// lands on the next OST, first touch of that OST = seek. But
	// re-reading [0,1024) then [1024, 2048) then [2048, 3072)...
	// sequential over all OSTs: exactly one seek per OST.
	clk2 := NewClock()
	for off := int64(0); off < 8192; off += 1024 {
		if _, err := s.ReadAt(clk2, "f", off, 1024); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().Seeks; got != 4 {
		t.Fatalf("sequential stripe walk: Seeks = %d, want 4", got)
	}
}

func TestSeekCostDominatesScatteredReads(t *testing.T) {
	// Scattered small reads must cost more virtual time than one
	// contiguous read of the same volume — the core property the
	// Hilbert-layout optimization exploits.
	cfg := testConfig()
	s := New(cfg)
	w := NewClock()
	size := int64(256 * 1024)
	if err := s.WriteFile(w, "f", make([]byte, size)); err != nil {
		t.Fatal(err)
	}

	s.ResetStats()
	contig := NewClock()
	if _, err := s.ReadAt(contig, "f", 0, 65536); err != nil {
		t.Fatal(err)
	}

	s.ResetStats()
	scattered := NewClock()
	// Same 64 KiB volume in 64 scattered 1 KiB reads with gaps.
	for i := int64(0); i < 64; i++ {
		if _, err := s.ReadAt(scattered, "f", i*4096, 1024); err != nil {
			t.Fatal(err)
		}
	}
	if scattered.Now() <= contig.Now()*2 {
		t.Fatalf("scattered reads (%.4fs) not clearly slower than contiguous (%.4fs)",
			scattered.Now(), contig.Now())
	}
}

func TestContentionFactorScalesTransferTime(t *testing.T) {
	// With more concurrent ranks than OSTs, each rank's clock carries a
	// proportional bandwidth-sharing factor.
	cfg := testConfig()
	cfg.NumOSTs = 2
	s := New(cfg)
	w := NewClock()
	if err := s.WriteFile(w, "f", make([]byte, 10240)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	solo := s.NewClocks(1)[0]
	if _, err := s.ReadFile(solo, "f"); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	contended := s.NewClocks(8)[0] // 8 concurrent ranks: factor 8
	if _, err := s.ReadFile(contended, "f"); err != nil {
		t.Fatal(err)
	}
	seeks := 2 * cfg.SeekLatency / 2 // per-OST seek is not scaled; both reads pay it
	soloTransfer := solo.Now() - seeks
	contTransfer := contended.Now() - seeks
	ratio := contTransfer / soloTransfer
	if ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("contention ratio = %.2f, want ≈8 (8 concurrent ranks)", ratio)
	}
	// Fewer ranks than OSTs: no contention.
	if c := s.NewClocks(2); c[0] == nil {
		t.Fatal("nil clock")
	}
}

func TestClocksAreDeterministic(t *testing.T) {
	// The same access sequence on fresh clocks yields identical virtual
	// times, regardless of what other clocks did meanwhile — the property
	// the experiment harness depends on.
	cfg := testConfig()
	s := New(cfg)
	w := NewClock()
	if err := s.WriteFile(w, "f", make([]byte, 65536)); err != nil {
		t.Fatal(err)
	}
	runSeq := func(clk *Clock) float64 {
		for off := int64(0); off < 65536; off += 4096 {
			if _, err := s.ReadAt(clk, "f", off, 2048); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now()
	}
	a := runSeq(s.NewClock())
	// Interleave unrelated traffic on another clock.
	noise := s.NewClock()
	if _, err := s.ReadFile(noise, "f"); err != nil {
		t.Fatal(err)
	}
	b := runSeq(s.NewClock())
	if a != b {
		t.Fatalf("identical access patterns got different times: %v vs %v", a, b)
	}
}

func TestClockSyncMax(t *testing.T) {
	a := NewClock()
	a.AdvanceBy(1)
	a.AdvanceBy(2)
	if a.Now() != 3 {
		t.Fatalf("AdvanceBy 1+2 = %v, want 3", a.Now())
	}
	// Negative AdvanceBy is ignored.
	a.AdvanceBy(-5)
	if a.Now() != 3 {
		t.Fatal("negative AdvanceBy moved clock")
	}
}

func TestOpenChargesLatency(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	w := NewClock()
	if err := s.WriteFile(w, "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	clk := NewClock()
	if err := s.Open(clk, "f"); err != nil {
		t.Fatal(err)
	}
	if math.Abs(clk.Now()-cfg.OpenLatency) > 1e-12 {
		t.Fatalf("open charged %v, want %v", clk.Now(), cfg.OpenLatency)
	}
	if err := s.Open(clk, "missing"); err == nil {
		t.Fatal("open of missing file accepted")
	}
}

// TestIOChargesClock: every Sim method that records I/O in Stats also
// advances the caller's clock by the modelled cost, so no simulated
// byte or open is free. One OST and round bandwidths make each cost
// exact: an open is OpenLatency, a non-contiguous transfer pays one
// seek, and bytes move at WriteBW or ReadBW.
func TestIOChargesClock(t *testing.T) {
	cfg := Config{NumOSTs: 1, StripeSize: 1 << 20, SeekLatency: 0.01, OpenLatency: 0.001, ReadBW: 100, WriteBW: 50}
	s := New(cfg)
	clk := NewClock()
	data := make([]byte, 100)
	type counters struct{ bytesRead, bytesWritten, seeks, opens, reads int64 }
	count := func() counters {
		st := s.Stats()
		return counters{st.BytesRead, st.BytesWritten, st.Seeks, st.Opens, st.Reads}
	}
	steps := []struct {
		name string
		op   func() error
		dt   float64
		want counters // deltas
	}{
		{"WriteFile", func() error { return s.WriteFile(clk, "f", data) },
			cfg.OpenLatency + cfg.SeekLatency + 100/cfg.WriteBW, counters{bytesWritten: 100, seeks: 1, opens: 1}},
		{"AppendFile", func() error { return s.AppendFile(clk, "f", data[:50]) },
			50 / cfg.WriteBW, counters{bytesWritten: 50}},
		{"AppendFile/new", func() error { return s.AppendFile(clk, "g", data[:50]) },
			cfg.SeekLatency + 50/cfg.WriteBW, counters{bytesWritten: 50, seeks: 1, opens: 1}},
		{"Open", func() error { return s.Open(clk, "f") },
			cfg.OpenLatency, counters{opens: 1}},
		{"ReadAt", func() error { _, err := s.ReadAt(clk, "f", 0, 100); return err },
			cfg.SeekLatency + 100/cfg.ReadBW, counters{bytesRead: 100, seeks: 1, reads: 1}},
	}
	for _, st := range steps {
		before, t0 := count(), clk.Now()
		if err := st.op(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		after := count()
		got := counters{
			after.bytesRead - before.bytesRead,
			after.bytesWritten - before.bytesWritten,
			after.seeks - before.seeks,
			after.opens - before.opens,
			after.reads - before.reads,
		}
		if got != st.want {
			t.Errorf("%s: stats moved by %+v, want %+v", st.name, got, st.want)
		}
		if dt := clk.Now() - t0; math.Abs(dt-st.dt) > 1e-9 {
			t.Errorf("%s: clock moved by %v s, want %v s", st.name, dt, st.dt)
		}
	}
}

func TestListTotalSizeDelete(t *testing.T) {
	s := New(testConfig())
	clk := NewClock()
	files := map[string]int{"bin/0/data": 100, "bin/0/index": 20, "bin/1/data": 300, "other": 7}
	for p, n := range files {
		if err := s.WriteFile(clk, p, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List("bin/")
	if len(got) != 3 || got[0] != "bin/0/data" {
		t.Fatalf("List = %v", got)
	}
	var total int64
	for _, p := range got {
		n, err := s.Size(p)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 420 {
		t.Fatalf("sizes under bin/ sum to %d, want 420", total)
	}
	if _, err := s.Size("other"); err != nil {
		t.Fatalf("Size of a written file: %v", err)
	}
	if err := s.Delete("other"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Size("other"); err == nil {
		t.Fatal("file survived delete")
	}
	if err := s.Delete("other"); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestConcurrentReaders(t *testing.T) {
	// Many goroutine ranks reading concurrently must not race (run with
	// -race) and the shared counters must add up.
	s := New(testConfig())
	w := NewClock()
	size := int64(32 * 1024)
	if err := s.WriteFile(w, "f", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	const ranks = 8
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clk := NewClock()
			for i := 0; i < 4; i++ {
				if _, err := s.ReadAt(clk, "f", int64(i)*8192, 8192); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().BytesRead; got != ranks*size {
		t.Fatalf("BytesRead = %d, want %d", got, ranks*size)
	}
}

func TestResetStatsClearsSchedules(t *testing.T) {
	s := New(testConfig())
	clk := NewClock()
	if err := s.WriteFile(clk, "f", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadFile(clk, "f"); err != nil {
		t.Fatal(err)
	}
	s.ResetStats()
	st := s.Stats()
	if st.BytesRead != 0 || st.Seeks != 0 || st.Opens != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
	// A fresh clock after reset must not queue behind old activity.
	fresh := NewClock()
	if _, err := s.ReadAt(fresh, "f", 0, 1024); err != nil {
		t.Fatal(err)
	}
	maxExpect := s.Config().SeekLatency + 1024/s.Config().ReadBW + 1e-9
	if fresh.Now() > maxExpect {
		t.Fatalf("fresh clock queued behind stale OST schedule: %v > %v", fresh.Now(), maxExpect)
	}
}

func TestWriteFileEmptyPathRejected(t *testing.T) {
	s := New(testConfig())
	if err := s.WriteFile(NewClock(), "", nil); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := s.AppendFile(NewClock(), "", nil); err == nil {
		t.Fatal("empty path accepted by append")
	}
}

// TestReadAtChargesWithoutAllocating: the per-OST partition of a read
// lives on the clock, so charging a striped read allocates nothing once
// the clock has made its first request.
func TestReadAtChargesWithoutAllocating(t *testing.T) {
	s := New(testConfig())
	clk := s.NewClock()
	if err := s.WriteFile(clk, "f", make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	off := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.ReadAt(clk, "f", off%(1<<15), 5000); err != nil {
			t.Fatal(err)
		}
		off += 7777
	})
	if allocs != 0 {
		t.Fatalf("ReadAt allocates %.0f times per call, want 0", allocs)
	}
}

func TestDefaultConfigSeqScanCalibration(t *testing.T) {
	// DESIGN.md calibration: an 8 GB sequential scan on the default
	// config should land near the paper's ~20 s (Table II seq-scan).
	cfg := DefaultConfig()
	aggregate := float64(cfg.NumOSTs) * cfg.ReadBW
	sec := 8e9 / aggregate
	if sec < 15 || sec > 25 {
		t.Fatalf("8 GB scan on default config = %.1fs, want ≈20s", sec)
	}
}

func BenchmarkReadAt(b *testing.B) {
	s := New(DefaultConfig())
	clk := NewClock()
	if err := s.WriteFile(clk, "f", make([]byte, 1<<24)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ReadAt(clk, "f", int64(i%256)*65536, 65536); err != nil {
			b.Fatal(err)
		}
	}
}
