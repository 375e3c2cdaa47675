package pfs

import "testing"

func coalesceFS(t *testing.T) *Sim {
	t.Helper()
	fs := New(Config{
		NumOSTs:     2,
		StripeSize:  1 << 20,
		SeekLatency: 0.005,
		OpenLatency: 0.001,
		ReadBW:      1e6, // CoalesceGap = 5000 bytes
		WriteBW:     1e6,
	})
	if err := fs.WriteFile(NewClock(), "f", make([]byte, 1<<16)); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestReadCoalescedMergesAdjacent(t *testing.T) {
	fs := coalesceFS(t)
	clk := fs.NewClock()
	m, bytes, err := fs.ReadExtents(clk, "f", []Extent{
		{0, 100}, {100, 100}, {200, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 300 {
		t.Fatalf("bytes = %d, want 300", bytes)
	}
	if fs.Stats().Reads != 1 {
		t.Fatalf("adjacent extents issued %d reads, want 1", fs.Stats().Reads)
	}
	for _, e := range []Extent{{0, 100}, {150, 100}, {299, 1}} {
		if _, err := m.Slice(e.Off, e.Len); err != nil {
			t.Fatalf("slice(%d,%d): %v", e.Off, e.Len, err)
		}
	}
}

func TestReadCoalescedMergesSmallGaps(t *testing.T) {
	fs := coalesceFS(t) // gap threshold 5000 bytes
	clk := fs.NewClock()
	_, bytes, err := fs.ReadExtents(clk, "f", []Extent{
		{0, 100}, {2000, 100}, // gap 1900 < 5000: merged, gap bytes read
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats().Reads != 1 {
		t.Fatalf("small-gap extents issued %d reads, want 1", fs.Stats().Reads)
	}
	if bytes != 2100 {
		t.Fatalf("merged read covers %d bytes, want 2100 (gap read through)", bytes)
	}
}

func TestReadCoalescedSplitsLargeGaps(t *testing.T) {
	fs := coalesceFS(t)
	clk := fs.NewClock()
	_, _, err := fs.ReadExtents(clk, "f", []Extent{
		{0, 100}, {20000, 100}, // gap 19900 > 5000: two reads
	})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Stats().Reads != 2 {
		t.Fatalf("large-gap extents issued %d reads, want 2", fs.Stats().Reads)
	}
}

func TestReadCoalescedUnsortedOverlapping(t *testing.T) {
	fs := coalesceFS(t)
	clk := fs.NewClock()
	m, _, err := fs.ReadExtents(clk, "f", []Extent{
		{500, 100}, {0, 200}, {450, 100}, {100, 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Extent{{0, 200}, {450, 150}, {500, 100}} {
		if _, err := m.Slice(e.Off, e.Len); err != nil {
			t.Fatalf("slice(%d,%d): %v", e.Off, e.Len, err)
		}
	}
}

func TestReadCoalescedZeroLengthExtents(t *testing.T) {
	fs := coalesceFS(t)
	clk := fs.NewClock()
	m, bytes, err := fs.ReadExtents(clk, "f", []Extent{{0, 0}, {10, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes != 0 {
		t.Fatalf("zero extents read %d bytes", bytes)
	}
	if got, err := m.Slice(5, 0); err != nil || got != nil {
		t.Fatalf("zero slice = %v, %v", got, err)
	}
}

func TestExtentMapSliceErrors(t *testing.T) {
	fs := coalesceFS(t)
	clk := fs.NewClock()
	m, _, err := fs.ReadExtents(clk, "f", []Extent{{100, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Slice(0, 10); err == nil {
		t.Error("slice before loaded range accepted")
	}
	if _, err := m.Slice(140, 20); err == nil {
		t.Error("slice past loaded range accepted")
	}
	empty := &ExtentMap{}
	if _, err := empty.Slice(0, 1); err == nil {
		t.Error("slice on empty map accepted")
	}
}
