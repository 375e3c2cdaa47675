package core

import (
	"mloc/internal/binning"
	"mloc/internal/pfs"
)

// splitTolerance ends the bisection over the slowest rank's price once
// the bracket, which starts at [0, the equal-count split's dearest rank]
// and at least halves each pass, is within this fraction of its top:
// eight passes at most.
const splitTolerance = 1.0 / 256

// splitScratch is assign's working state. It lives in the query's pooled
// scratch, so pricing a split allocates nothing once the pool is warm.
type splitScratch struct {
	price pfs.PriceScratch
	ext   []pfs.Extent
	// groups are the plan's bins in column order, each a run of plan
	// tasks, then its node steps as one run, each with the price of
	// reading all of it; prefix[g] sums the prices of the groups before
	// g.
	groups []taskRun
	prefix []float64
	// breaks holds the break counts of the groups that have any (see
	// taskRun); planes is whether a bin's data extents fall into one
	// region per plane.
	breaks []int32
	planes bool
	// memo caches the prices of runs that cut a group, which the
	// bisection asks for again and again; gen tells this query's entries
	// apart.
	memo [memoSize]memoEntry
	gen  uint32
	// cuts and try are rank boundaries over the plan's steps: rank r
	// runs steps [cuts[r], cuts[r+1]).
	cuts, try []int
	tasks     [][]task
	nodes     [][]binning.NodeRef
}

// taskRun is one bin's run of plan tasks, [lo, hi), as the split sees
// it, or the plan's node steps (lo at the first of them, no regions).
// The extents runBin reads for a bin's run fall into regions, each a
// list in file order with one extent per task: the index extents, then
// the data extents — one region per plane under V-M-S, where each plane
// is stored apart, else one region whose extent per task spans its
// leading pieces.
// A run of tasks with no gap wider than CoalesceGap between consecutive
// extents of a region reads that region as one coalesced extent. off is
// -1 when the bin has no such gap; else breaks[off + r*(hi-lo) + i]
// counts the wide gaps among region r's extents 0..i.
type taskRun struct {
	lo, hi  int
	regions int
	off     int
	price   float64
}

const memoSize = 256

type memoEntry struct {
	a, b  int32
	gen   uint32
	price float64
}

// assign splits a plan across ranks (paper §III-D). A plan's steps are
// its tasks in column order followed by its node steps. Column order
// hands each rank a contiguous run of them, so a rank enters few bins
// and opens few files, cut where the slowest rank's modelled I/O is
// least (splitByCost). Round-robin stripes the steps across ranks (the
// ablation alternative, which maximizes file sharing and contention).
func (s *Store) assign(p *plan, ranks int, sp *splitScratch) ([][]task, [][]binning.NodeRef) {
	sp.tasks = growSlices(sp.tasks, ranks)
	sp.nodes = growSlices(sp.nodes, ranks)
	tasks, nodes := sp.tasks[:ranks], sp.nodes[:ranks]
	if s.assignment == AssignRoundRobin {
		for i, t := range p.tasks {
			tasks[i%ranks] = append(tasks[i%ranks], t)
		}
		for i, n := range p.nodes {
			nodes[i%ranks] = append(nodes[i%ranks], n)
		}
	} else {
		s.splitByCost(p, ranks, sp)
		nt := len(p.tasks)
		for r := range tasks {
			lo, hi := sp.cuts[r], sp.cuts[r+1]
			tasks[r] = p.tasks[min(lo, nt):min(hi, nt)]
			nodes[r] = p.nodes[max(lo, nt)-nt : max(hi, nt)-nt]
		}
	}
	return tasks, nodes
}

// growSlices returns s with at least n elements, each emptied.
func growSlices[T any](s [][]T, n int) [][]T {
	for len(s) < n {
		s = append(s, nil)
	}
	for i := range s[:n] {
		s[i] = s[i][:0]
	}
	return s
}

// growInts returns s resized to n.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// splitByCost leaves in sp.cuts the contiguous split of the plan's steps
// whose dearest rank, priced by runPrice, is cheapest: a bisection over
// a bound, each pass a greedy that gives every rank the longest run from
// where the previous one stopped whose price is within the bound. The
// bracket starts at the equal-count split's dearest rank, so the result
// is never dearer than that split. The split is a pure function of the
// plan, the store and the rank count.
func (s *Store) splitByCost(p *plan, ranks int, sp *splitScratch) {
	steps := len(p.tasks) + len(p.nodes)
	sp.cuts = growInts(sp.cuts, ranks+1)
	sp.try = growInts(sp.try, ranks+1)
	per := (steps + ranks - 1) / ranks
	for r := range sp.cuts {
		sp.cuts[r] = min(r*per, steps)
	}
	if ranks == 1 || steps <= 1 {
		return
	}
	contention := float64(ranks)
	s.groupRuns(p, sp, contention)
	sp.gen++
	hi := 0.0
	for r := 0; r < ranks; r++ {
		hi = max(hi, s.runPrice(p, sp, sp.cuts[r], sp.cuts[r+1], contention))
	}
	for lo := 0.0; hi-lo > hi*splitTolerance; {
		mid := (lo + hi) / 2
		if worst, ok := s.greedySplit(p, sp, ranks, mid, contention); ok {
			hi = worst
			copy(sp.cuts, sp.try)
		} else {
			lo = mid
		}
	}
}

// greedySplit fills sp.try with the greedy split under bound and returns
// its dearest rank's price. It reports false when a single step is
// dearer than bound or the ranks run out before the steps do.
func (s *Store) greedySplit(p *plan, sp *splitScratch, ranks int, bound, contention float64) (float64, bool) {
	steps := len(p.tasks) + len(p.nodes)
	worst := 0.0
	a := 0
	sp.try[0] = 0
	for r := 1; r <= ranks; r++ {
		if a < steps {
			b, price := s.longestRun(p, sp, a, bound, contention)
			if b == a {
				return 0, false
			}
			a = b
			worst = max(worst, price)
		}
		sp.try[r] = a
	}
	return worst, a == steps
}

// longestRun returns the largest b > a whose run [a, b) prices within
// bound, with its price, or a when even one step is dearer. Groups the
// run covers whole are summed from the prefix sums, so it prices at most
// the group it starts in and the group it stops in.
func (s *Store) longestRun(p *plan, sp *splitScratch, a int, bound, contention float64) (int, float64) {
	ga := sp.groupOf(a)
	first := s.cutPrice(p, sp, ga, a, sp.groups[ga].hi, contention)
	if first > bound {
		return s.longestIn(p, sp, ga, a, sp.groups[ga].hi, 0, bound, contention)
	}
	// The largest gb such that groups ga+1..gb-1 fit whole.
	acc := first
	lo, hi := ga+1, len(sp.groups)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if acc+sp.prefix[mid]-sp.prefix[ga+1] <= bound {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	acc += sp.prefix[lo] - sp.prefix[ga+1]
	if lo < len(sp.groups) {
		return s.longestIn(p, sp, lo, sp.groups[lo].lo, sp.groups[lo].hi, acc, bound, contention)
	}
	return sp.groups[lo-1].hi, acc
}

// longestIn returns the largest b in (a, end] such that acc plus the
// price of [a, b) is within bound, with that sum, or a and acc when none
// is; [a, end) lies within group g.
func (s *Store) longestIn(p *plan, sp *splitScratch, g, a, end int, acc, bound, contention float64) (int, float64) {
	best, price := a, acc
	lo, hi := a+1, end
	for lo <= hi {
		mid := (lo + hi) / 2
		c := acc + s.cutPrice(p, sp, g, a, mid, contention)
		if c <= bound {
			best, price = mid, c
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best, price
}

// groupRuns fills sp.groups with the plan's bins in column order, then
// its node run, and their prices, and sp.prefix with the prices' running
// sums. One walk per region prices a bin's whole run from its coalesced
// extents; a run with a gap wider than CoalesceGap in some region also
// gets break counts.
func (s *Store) groupRuns(p *plan, sp *splitScratch, contention float64) {
	sp.groups, sp.breaks = sp.groups[:0], sp.breaks[:0]
	sp.prefix = append(sp.prefix[:0], 0)
	sp.planes = p.pieces > 1 && s.meta.order.PlanesBeforeChunks()
	maxGap := s.fs.CoalesceGap()
	for lo := 0; lo < len(p.tasks); {
		hi := lo + 1
		for hi < len(p.tasks) && p.tasks[hi].bin == p.tasks[lo].bin {
			hi++
		}
		run := taskRun{lo: lo, hi: hi, regions: 1, off: -1}
		if p.tasks[lo].needData {
			run.regions++
			if sp.planes {
				run.regions += p.pieces - 1
			}
		}
		bin := p.tasks[lo].bin
		bm := &s.meta.bins[bin]
		units := bm.units
		wide := false
		for r := 0; r < run.regions; r++ {
			if r <= 1 {
				if r == 1 {
					run.price = s.fs.PriceRead(&sp.price, s.binOST[bin].index, sp.ext, contention)
				}
				sp.ext = sp.ext[:0]
			}
			cur := sp.regionExtent(p, &units[p.tasks[lo].unit], r)
			size := bm.indexSize
			if r > 0 {
				size = bm.dataSize
			}
			if size <= maxGap {
				// No gap inside a file this small is wide.
				last := sp.regionExtent(p, &units[p.tasks[hi-1].unit], r)
				sp.ext = append(sp.ext, pfs.Extent{Off: cur.Off, Len: last.Off + last.Len - cur.Off})
				continue
			}
			for _, t := range p.tasks[lo+1 : hi] {
				e := sp.regionExtent(p, &units[t.unit], r)
				if e.Off-(cur.Off+cur.Len) > maxGap {
					sp.ext = append(sp.ext, cur)
					cur, wide = e, true
					continue
				}
				cur.Len = e.Off + e.Len - cur.Off
			}
			sp.ext = append(sp.ext, cur)
		}
		file := s.binOST[bin].index
		if run.regions > 1 {
			file = s.binOST[bin].data
		}
		run.price += s.fs.PriceRead(&sp.price, file, sp.ext, contention)
		if wide {
			run.off = len(sp.breaks)
			for r := 0; r < run.regions; r++ {
				var count int32
				var end int64
				for i, t := range p.tasks[lo:hi] {
					e := sp.regionExtent(p, &units[t.unit], r)
					if i > 0 && e.Off-end > maxGap {
						count++
					}
					end = e.Off + e.Len
					sp.breaks = append(sp.breaks, count)
				}
			}
		}
		sp.addGroup(run)
		lo = hi
	}
	if nt := len(p.tasks); len(p.nodes) > 0 {
		sp.addGroup(taskRun{lo: nt, hi: nt + len(p.nodes), off: -1, price: s.priceNodes(sp, p.nodes, contention)})
	}
}

// addGroup appends a priced run to sp.groups and its running sum to
// sp.prefix.
func (sp *splitScratch) addGroup(run taskRun) {
	sp.groups = append(sp.groups, run)
	sp.prefix = append(sp.prefix, sp.prefix[len(sp.groups)-1]+run.price)
}

// regionExtent returns unit u's extent in region r of its bin: its index
// in region 0, then its data — its plane r-1 under V-M-S, else its
// leading pieces, which lie back to back.
func (sp *splitScratch) regionExtent(p *plan, u *unitMeta, r int) pfs.Extent {
	switch {
	case r == 0:
		return pfs.Extent{Off: u.indexOff, Len: u.indexLen}
	case sp.planes:
		return pfs.Extent{Off: u.pieceOff[r-1], Len: u.pieceLen[r-1]}
	default:
		last := p.pieces - 1
		return pfs.Extent{Off: u.pieceOff[0], Len: u.pieceOff[last] + u.pieceLen[last] - u.pieceOff[0]}
	}
}

// runPrice is the modelled I/O of the steps [a, b): what the simulator
// would charge one rank running them, from opens, seeks and striped
// bytes (pfs.Sim.PriceRead). A rank's bins and its node run are distinct
// files, so their prices add; a group the run covers whole is priced
// once, in groupRuns.
func (s *Store) runPrice(p *plan, sp *splitScratch, a, b int, contention float64) float64 {
	if a == b {
		return 0
	}
	ga, gb := sp.groupOf(a), sp.groupOf(b-1)
	price := s.cutPrice(p, sp, ga, a, min(b, sp.groups[ga].hi), contention)
	if gb > ga {
		price += sp.prefix[gb] - sp.prefix[ga+1]
		price += s.cutPrice(p, sp, gb, sp.groups[gb].lo, b, contention)
	}
	return price
}

// memoFor returns the memo slot of the run [a, b).
func (sp *splitScratch) memoFor(a, b int) *memoEntry {
	return &sp.memo[(uint(a)*2654435761+uint(b))%memoSize]
}

// groupOf returns the group holding step i.
func (sp *splitScratch) groupOf(i int) int {
	lo, hi := 0, len(sp.groups)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if sp.groups[mid].hi > i {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// cutPrice prices steps [a, b) of group g: the group's price when the
// run is all of it, else from the memo, or from binPrice or priceNodes.
func (s *Store) cutPrice(p *plan, sp *splitScratch, g, a, b int, contention float64) float64 {
	run := &sp.groups[g]
	if a == run.lo && b == run.hi {
		return run.price
	}
	m := sp.memoFor(a, b)
	if m.gen != sp.gen || int(m.a) != a || int(m.b) != b {
		var price float64
		if nt := len(p.tasks); a >= nt {
			price = s.priceNodes(sp, p.nodes[a-nt:b-nt], contention)
		} else {
			price = s.binPrice(p, sp, run, a, b, contention)
		}
		*m = memoEntry{a: int32(a), b: int32(b), gen: sp.gen, price: price}
	}
	return m.price
}

// binPrice prices tasks [a, b) of one bin as runBin reads them: one open
// and read batch of the index file and, when the bin's tasks need data,
// of the data file.
func (s *Store) binPrice(p *plan, sp *splitScratch, run *taskRun, a, b int, contention float64) float64 {
	ost := s.binOST[p.tasks[a].bin]
	price := s.fs.PriceRead(&sp.price, ost.index, s.regionExtents(p, sp, run, 0, 1, a, b), contention)
	if run.regions > 1 {
		price += s.fs.PriceRead(&sp.price, ost.data, s.regionExtents(p, sp, run, 1, run.regions, a, b), contention)
	}
	return price
}

// regionExtents lists in sp.ext, in file order, the extents of tasks
// [a, b) in regions [r0, r1) of their bin. A region with no gap wider
// than CoalesceGap inside the run coalesces into one extent, from its
// first task's to its last's, so that is all it lists.
func (s *Store) regionExtents(p *plan, sp *splitScratch, run *taskRun, r0, r1, a, b int) []pfs.Extent {
	units := s.meta.bins[p.tasks[a].bin].units
	k := run.hi - run.lo
	sp.ext = sp.ext[:0]
	for r := r0; r < r1; r++ {
		if run.off < 0 || sp.breaks[run.off+r*k+a-run.lo] == sp.breaks[run.off+r*k+b-1-run.lo] {
			first, last := sp.regionExtent(p, &units[p.tasks[a].unit], r), sp.regionExtent(p, &units[p.tasks[b-1].unit], r)
			sp.ext = append(sp.ext, pfs.Extent{Off: first.Off, Len: last.Off + last.Len - first.Off})
			continue
		}
		for _, t := range p.tasks[a:b] {
			sp.ext = append(sp.ext, sp.regionExtent(p, &units[t.unit], r))
		}
	}
	return sp.ext
}

// priceNodes prices node steps as runNodes reads them: one open of the
// vindex and one read batch of the nodes' bitmaps.
func (s *Store) priceNodes(sp *splitScratch, nodes []binning.NodeRef, contention float64) float64 {
	sp.ext = sp.ext[:0]
	for _, n := range nodes {
		id := s.vidx.nodeID(n)
		sp.ext = append(sp.ext, pfs.Extent{Off: s.vidx.offs[id], Len: s.vidx.lens[id]})
	}
	return s.fs.PriceRead(&sp.price, s.vidx.ost, sp.ext, contention)
}
