package query

import (
	"testing"

	"mloc/internal/binning"
	"mloc/internal/grid"
)

func TestRequestValidate(t *testing.T) {
	shape := grid.Shape{8, 8}
	good := []Request{
		{},
		{VC: &binning.ValueConstraint{Min: 0, Max: 1}},
		{SC: &grid.Region{Lo: []int{0, 0}, Hi: []int{4, 4}}},
		{PLoDLevel: 3},
		{IndexOnly: true},
		{Rows: Rows{{0, 2}, {2, 3}, {6, 8}}},
		{SC: &grid.Region{Lo: []int{1, 0}, Hi: []int{7, 4}}, Rows: Rows{{1, 2}, {5, 7}}},
	}
	for i, r := range good {
		if err := r.Validate(shape); err != nil {
			t.Errorf("good request %d rejected: %v", i, err)
		}
	}
	bad := []Request{
		{VC: &binning.ValueConstraint{Min: 2, Max: 1}},
		{SC: &grid.Region{Lo: []int{0}, Hi: []int{4}}},
		{SC: &grid.Region{Lo: []int{5, 0}, Hi: []int{4, 4}}},
		{PLoDLevel: -1},
		{PLoDLevel: 8},
		{Rows: Rows{}},               // empty list
		{Rows: Rows{{3, 3}}},         // empty range
		{Rows: Rows{{4, 6}, {1, 2}}}, // descending
		{Rows: Rows{{1, 4}, {3, 6}}}, // overlapping
		{Rows: Rows{{-1, 2}}},        // below dimension 0
		{Rows: Rows{{6, 9}}},         // beyond dimension 0
		{SC: &grid.Region{Lo: []int{2, 0}, Hi: []int{5, 8}}, Rows: Rows{{1, 3}}}, // outside the SC's rows
	}
	for i, r := range bad {
		if err := r.Validate(shape); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestComponents(t *testing.T) {
	a := Components{IO: 1, Decompress: 2, Reconstruct: 3}
	if a.Total() != 6 {
		t.Fatalf("Total = %v", a.Total())
	}
	b := Components{IO: 10, Decompress: 0.5, Reconstruct: 1}
	a.Add(b)
	if a.IO != 11 || a.Decompress != 2.5 || a.Reconstruct != 4 {
		t.Fatalf("Add = %+v", a)
	}
	m := Components{IO: 5, Decompress: 9, Reconstruct: 1}
	m.MaxWith(Components{IO: 7, Decompress: 2, Reconstruct: 3})
	if m.IO != 7 || m.Decompress != 9 || m.Reconstruct != 3 {
		t.Fatalf("MaxWith = %+v", m)
	}
}

func TestResultSort(t *testing.T) {
	r := Result{Matches: []Match{{Index: 5}, {Index: 1}, {Index: 3}}}
	r.Sort()
	for i := 1; i < len(r.Matches); i++ {
		if r.Matches[i].Index < r.Matches[i-1].Index {
			t.Fatalf("not sorted: %+v", r.Matches)
		}
	}
	empty := Result{}
	empty.Sort() // must not panic
}

func TestMergeResults(t *testing.T) {
	a := &Result{
		Matches:      []Match{{Index: 10, Value: 1}, {Index: 2, Value: 2}},
		Time:         Components{IO: 3, Decompress: 1, Reconstruct: 5},
		BytesRead:    100,
		BinsAccessed: 2,
		BlocksRead:   4,
		CacheHits:    1,
	}
	b := &Result{
		Matches:      []Match{{Index: 7, Value: 3}},
		Time:         Components{IO: 1, Decompress: 6, Reconstruct: 2},
		BytesRead:    50,
		BinsAccessed: 1,
		BlocksRead:   2,
		CacheHits:    3,
	}
	m := MergeResults([]*Result{a, nil, b})
	if len(m.Matches) != 3 {
		t.Fatalf("merged %d matches, want 3", len(m.Matches))
	}
	for i, want := range []int64{2, 7, 10} {
		if m.Matches[i].Index != want {
			t.Fatalf("match %d index = %d, want %d", i, m.Matches[i].Index, want)
		}
	}
	if m.BytesRead != 150 || m.BinsAccessed != 3 || m.BlocksRead != 6 || m.CacheHits != 4 {
		t.Fatalf("summed counters wrong: %+v", m)
	}
	// Concurrent shards: component-wise max, not sum.
	if m.Time.IO != 3 || m.Time.Decompress != 6 || m.Time.Reconstruct != 5 {
		t.Fatalf("merged time = %+v, want component-wise max", m.Time)
	}
	if empty := MergeResults(nil); len(empty.Matches) != 0 || empty.BytesRead != 0 {
		t.Fatalf("empty merge = %+v", empty)
	}
}

// TestMergeResultsCarriesTotals: a shard that listed fewer matches than
// it found (a capped response) still counts in full.
func TestMergeResultsCarriesTotals(t *testing.T) {
	capped := &Result{Matches: []Match{{Index: 1}, {Index: 2}}, Total: 40}
	whole := &Result{Matches: []Match{{Index: 50}, {Index: 51}, {Index: 52}}}
	m := MergeResults([]*Result{capped, whole})
	if len(m.Matches) != 5 || m.MatchCount() != 43 {
		t.Fatalf("merged %d listed, MatchCount %d; want 5 and 43", len(m.Matches), m.MatchCount())
	}
	if got := (&Result{Matches: make([]Match, 3)}).MatchCount(); got != 3 {
		t.Fatalf("MatchCount without Total = %d, want 3", got)
	}
}
