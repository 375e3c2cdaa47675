package query

import (
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
)

// sortedReference is the order SortMatches must reproduce: by index,
// equal indices in their incoming order.
func sortedReference(m []Match) []Match {
	want := slices.Clone(m)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Index < want[j].Index })
	return want
}

func checkSorted(t *testing.T, label string, m []Match) {
	t.Helper()
	want := sortedReference(m)
	SortMatches(m)
	if !slices.Equal(m, want) {
		for i := range m {
			if m[i] != want[i] {
				t.Fatalf("%s (n=%d): match %d = %+v, want %+v", label, len(m), i, m[i], want[i])
			}
		}
	}
}

// TestSortMatchesProperty checks SortMatches against a stable reference
// sort on both sides of the radix cutoff, for shuffled, ascending,
// reversed and duplicate-heavy inputs, over index ranges that need one
// to six digit passes (2^40 positions and beyond included) and ranges
// that start below zero.
func TestSortMatchesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 2, 3, radixMinLen - 1, radixMinLen, radixMinLen + 1, 1000, 5000}
	ranges := []struct {
		name   string
		lo, hi int64
	}{
		{"one digit", 0, 1 << 10},
		{"grid", 0, 512 * 512},
		{"offset window", 1 << 33, 1<<33 + 1<<20},
		{"2^40 positions", 0, 1 << 40},
		{"2^45 positions", 0, 1 << 45},
		{"2^62 positions", 0, 1 << 62},
		{"negative", -(1 << 40), 1 << 40},
		{"few distinct", 7, 12},
	}
	for _, rg := range ranges {
		for _, n := range lengths {
			m := make([]Match, n)
			for i := range m {
				// Value records the incoming position, so a stability
				// violation among equal indices is visible.
				m[i] = Match{Index: rg.lo + r.Int63n(rg.hi-rg.lo), Value: float64(i)}
			}
			checkSorted(t, rg.name+"/shuffled", slices.Clone(m))

			asc := sortedReference(m)
			before := slices.Clone(asc)
			SortMatches(asc)
			if !slices.Equal(asc, before) {
				t.Fatalf("%s/ascending (n=%d): an ascending list was reordered", rg.name, n)
			}

			rev := slices.Clone(before)
			slices.Reverse(rev)
			checkSorted(t, rg.name+"/reversed", rev)
		}
	}
	checkSorted(t, "extremes", append(make([]Match, radixMinLen),
		Match{Index: 1<<63 - 1}, Match{Index: -1 << 63}, Match{Index: 0, Value: 1}))
}

// TestSortMatchesConcurrent shares the pooled scratch between
// goroutines; run under -race.
func TestSortMatchesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for iter := 0; iter < 50; iter++ {
				m := make([]Match, radixMinLen+r.Intn(4000))
				for i := range m {
					m[i] = Match{Index: r.Int63n(1 << 30), Value: float64(i)}
				}
				want := sortedReference(m)
				SortMatches(m)
				if !slices.Equal(m, want) {
					t.Errorf("goroutine %d iteration %d: wrong order", seed, iter)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestMergeResultsUntrustedParts: a shard's answer is input from
// outside the process. Parts that interleave, run backwards, repeat an
// index or stray outside their slab must still merge into the order a
// stable sort of their concatenation gives.
func TestMergeResultsUntrustedParts(t *testing.T) {
	const shards, perShard = 4, 600
	r := rand.New(rand.NewSource(2))
	interleaved := make([]*Result, shards)
	for s := range interleaved {
		interleaved[s] = &Result{Matches: make([]Match, perShard)}
		for j := range interleaved[s].Matches {
			interleaved[s].Matches[j] = Match{Index: int64(j*shards + s), Value: r.Float64()}
		}
	}
	reversed := []*Result{{Matches: make([]Match, perShard)}, {Matches: make([]Match, perShard)}}
	for j := 0; j < perShard; j++ {
		reversed[0].Matches[j] = Match{Index: int64(perShard - j), Value: 1}
		reversed[1].Matches[j] = Match{Index: int64(3*perShard - j), Value: 2}
	}
	duplicates := []*Result{{Matches: make([]Match, perShard)}, nil, {Matches: make([]Match, perShard)}}
	for j := 0; j < perShard; j++ {
		duplicates[0].Matches[j] = Match{Index: int64(j / 3), Value: float64(j)}
		duplicates[2].Matches[j] = Match{Index: int64(j / 3), Value: float64(-j)}
	}
	hostile := []*Result{
		{Matches: []Match{{Index: 9}, {Index: -4}, {Index: 1 << 50}}},
		{Matches: []Match{{Index: 3}, {Index: 9, Value: 1}, {Index: -1 << 63}}},
	}
	for name, parts := range map[string][]*Result{
		"interleaved": interleaved, "reversed": reversed, "duplicates": duplicates, "hostile": hostile,
	} {
		var concat []Match
		for _, p := range parts {
			if p != nil {
				concat = append(concat, p.Matches...)
			}
		}
		want := sortedReference(concat)
		got := MergeResults(parts)
		if !slices.Equal(got.Matches, want) {
			t.Errorf("%s: merged order differs from a stable sort of the parts", name)
		}
		if got.MatchCount() != len(concat) {
			t.Errorf("%s: MatchCount %d, want %d", name, got.MatchCount(), len(concat))
		}
	}
}

func BenchmarkSortMatches(b *testing.B) {
	for _, n := range []int{32, 64, 4096, 65536} {
		r := rand.New(rand.NewSource(3))
		src := make([]Match, n)
		for i := range src {
			src[i] = Match{Index: r.Int63n(512 * 512)}
		}
		m := make([]Match, n)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(m, src)
				SortMatches(m)
			}
		})
	}
}
