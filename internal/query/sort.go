package query

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
)

const (
	// radixBits is the digit width of the radix sort: 2048 counters stay
	// in L1, and a grid of up to 2^22 points sorts in two passes.
	radixBits    = 11
	radixBuckets = 1 << radixBits
	// radixMinLen is the length below which a comparison sort is cheaper
	// than clearing and prefix-summing the counters once per pass.
	radixMinLen = 64
)

// sortScratch is the radix sort's working memory: the ping-pong buffer
// and one pass's digit counters.
type sortScratch struct {
	tmp    []Match
	counts [radixBuckets]int
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// radixDigit is the digit of index's offset from base that a pass at
// shift sorts on.
func radixDigit(index int64, base uint64, shift uint) uint64 {
	return (uint64(index) - base) >> shift & (radixBuckets - 1)
}

// SortMatches orders m by linear index, keeping equal indices in their
// incoming order. One scan settles the common case — the engine's index
// nodes and a router's slab-ordered shards already produce ascending
// lists — and finds the index range for the rest, which take an LSD
// radix sort over ⌈bits(max−min)/11⌉ digit passes: time linear in
// len(m), with scratch memory drawn from a pool.
func SortMatches(m []Match) {
	if len(m) < 2 {
		return
	}
	lo, hi := m[0].Index, m[0].Index
	ascending := true
	for i := 1; i < len(m); i++ {
		x := m[i].Index
		if x < m[i-1].Index {
			ascending = false
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	if ascending {
		return
	}
	if len(m) < radixMinLen {
		slices.SortStableFunc(m, func(a, b Match) int { return cmp.Compare(a.Index, b.Index) })
		return
	}

	// Keys are offsets from the smallest index, so a negative index (only
	// an untrusted shard can send one) sorts where a signed compare puts
	// it, and a narrow window of a large grid needs fewer passes.
	base := uint64(lo)
	passes := (bits.Len64(uint64(hi)-base) + radixBits - 1) / radixBits
	s := sortScratchPool.Get().(*sortScratch)
	if cap(s.tmp) < len(m) {
		s.tmp = make([]Match, len(m))
	}
	src, dst := m, s.tmp[:len(m)]
	for p := 0; p < passes; p++ {
		shift := uint(p * radixBits)
		s.counts = [radixBuckets]int{}
		for i := range src {
			s.counts[radixDigit(src[i].Index, base, shift)]++
		}
		if s.counts[radixDigit(src[0].Index, base, shift)] == len(src) {
			continue // every key shares this digit
		}
		sum := 0
		for b := range s.counts {
			s.counts[b], sum = sum, sum+s.counts[b]
		}
		for i := range src {
			d := radixDigit(src[i].Index, base, shift)
			dst[s.counts[d]] = src[i]
			s.counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &m[0] {
		copy(m, src)
	}
	sortScratchPool.Put(s)
}
