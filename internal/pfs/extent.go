package pfs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Extent is a byte range in a file.
type Extent struct{ Off, Len int64 }

// ExtentMap holds the buffers of one ReadExtents call for lookups by
// extent.
type ExtentMap struct {
	base []int64
	bufs [][]byte
}

// Slice returns the bytes of an extent covered by the read that built
// the map. The slice aliases simulator memory and must not be modified.
func (m *ExtentMap) Slice(off, length int64) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	i := sort.Search(len(m.base), func(i int) bool { return m.base[i] > off })
	if i == 0 {
		return nil, fmt.Errorf("pfs: extent [%d,%d) not loaded", off, off+length)
	}
	i--
	rel := off - m.base[i]
	if rel+length > int64(len(m.bufs[i])) {
		return nil, fmt.Errorf("pfs: extent [%d,%d) exceeds loaded range", off, off+length)
	}
	return m.bufs[i][rel : rel+length], nil
}

// ReadExtents is the one extent reader: it sorts and merges the extents
// and issues one read per merged extent, charging clk, and returns the
// buffers plus the bytes read. Extents separated by gaps up to
// CoalesceGap are merged too: reading through a small gap costs less
// than the seek it avoids, which is exactly the paper's rationale for
// curve-ordered layouts (§III-B2) — the reader lives here because that
// threshold is the simulator's cost model, not the caller's. The list is
// sorted and merged in place: the caller gets it back reordered and
// overwritten. The file is not opened; callers charge Open once per
// file.
func (s *Sim) ReadExtents(clk *Clock, path string, extents []Extent) (*ExtentMap, int64, error) {
	if len(extents) == 0 {
		return &ExtentMap{}, 0, nil
	}
	merged := s.mergeExtents(extents)
	m := &ExtentMap{base: make([]int64, 0, len(merged)), bufs: make([][]byte, 0, len(merged))}
	var total int64
	for _, e := range merged {
		buf, err := s.ReadAt(clk, path, e.Off, e.Len)
		if err != nil {
			return nil, total, err
		}
		m.base = append(m.base, e.Off)
		m.bufs = append(m.bufs, buf)
		total += e.Len
	}
	return m, total, nil
}

// mergeExtents sorts extents by offset and merges, in place, those that
// overlap, touch or lie within CoalesceGap of each other, dropping empty
// ones: the reads ReadExtents issues and PriceRead prices.
func (s *Sim) mergeExtents(extents []Extent) []Extent {
	if len(extents) == 0 {
		return extents
	}
	maxGap := s.CoalesceGap()
	for i := 1; i < len(extents); i++ {
		if extents[i].Off < extents[i-1].Off {
			slices.SortFunc(extents, func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) })
			break
		}
	}
	merged := extents[:0] // writes trail the reads below
	cur := extents[0]
	for _, e := range extents[1:] {
		if e.Len == 0 {
			continue
		}
		if cur.Len == 0 {
			cur = e
			continue
		}
		if e.Off <= cur.Off+cur.Len+maxGap {
			// Adjacent, overlapping, or within the economical gap:
			// extend (gap bytes are read and paid for).
			if end := e.Off + e.Len; end > cur.Off+cur.Len {
				cur.Len = end - cur.Off
			}
			continue
		}
		merged = append(merged, cur)
		cur = e
	}
	if cur.Len > 0 {
		merged = append(merged, cur)
	}
	return merged
}

// FileOST returns the OST a file's first stripe lives on. It depends on
// the path alone, so a planner can price a file it has not opened.
func (s *Sim) FileOST(path string) int {
	return int(hashPath(path) % uint64(s.cfg.NumOSTs))
}

// PriceScratch is PriceRead's working state, kept by the caller so that
// pricing allocates nothing after the first call. The zero value is
// ready to use; a PriceScratch serves one goroutine at a time.
type PriceScratch struct {
	heads []headPos
	work  []ostWork
}

// PriceRead returns the virtual seconds that Open plus ReadExtents of
// extents charge a clock with the given contention whose heads hold no
// position in the file, which starts on OST first (FileOST). The
// extents are merged in place exactly as ReadExtents merges them, and
// each merged read is priced by transfer, the function charge uses, with
// the heads moving from read to read as the clock's would: the planner's
// price and the simulator's charge cannot disagree. An empty list prices
// at zero: the engine opens no file it has nothing to read from.
func (s *Sim) PriceRead(sc *PriceScratch, first int, extents []Extent, contention float64) float64 {
	if len(extents) == 0 {
		return 0
	}
	merged := s.mergeExtents(extents)
	if len(sc.heads) != s.cfg.NumOSTs {
		sc.heads = make([]headPos, s.cfg.NumOSTs)
		sc.work = make([]ostWork, s.cfg.NumOSTs)
	}
	clear(sc.heads)
	price := s.cfg.OpenLatency
	for i, e := range merged {
		price += s.transfer(sc.work, sc.heads, 0, first, e.Off, e.Len, contention, s.cfg.ReadBW)
		if i == len(merged)-1 {
			break // no read follows to see the heads
		}
		for ost := range sc.work {
			if w := &sc.work[ost]; w.touched {
				sc.heads[ost] = headPos{off: w.lastEnd, valid: true}
			}
		}
	}
	return price
}
