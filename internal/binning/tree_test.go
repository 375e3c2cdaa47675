package binning

import (
	"math/rand"
	"sort"
	"testing"
)

func TestNewTreeValidation(t *testing.T) {
	s, _ := FromBounds([]float64{0, 1, 2})
	if _, err := NewTree(s, 1); err == nil {
		t.Error("fanout 1 accepted")
	}
	if _, err := NewTree(s, 0); err == nil {
		t.Error("fanout 0 accepted")
	}
}

func TestTreeShape(t *testing.T) {
	cases := []struct {
		bins, fanout int
		wantLevels   int
		wantNodes    int
	}{
		{1, 2, 1, 1},     // single leaf is the root
		{2, 2, 2, 3},     // 2 + 1
		{7, 2, 4, 14},    // 7+4+2+1
		{8, 2, 4, 15},    // 8+4+2+1
		{9, 4, 3, 13},    // 9+3+1
		{100, 4, 5, 135}, // 100+25+7+2+1
	}
	for _, c := range cases {
		bounds := make([]float64, c.bins+1)
		for i := range bounds {
			bounds[i] = float64(i)
		}
		s, err := FromBounds(bounds)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTree(s, c.fanout)
		if err != nil {
			t.Fatal(err)
		}
		if tr.NumLevels() != c.wantLevels {
			t.Errorf("bins=%d fanout=%d: levels = %d, want %d", c.bins, c.fanout, tr.NumLevels(), c.wantLevels)
		}
		if tr.NumNodes() != c.wantNodes {
			t.Errorf("bins=%d fanout=%d: nodes = %d, want %d", c.bins, c.fanout, tr.NumNodes(), c.wantNodes)
		}
		root := tr.Root()
		if lo, hi := tr.Leaves(root); lo != 0 || hi != c.bins {
			t.Errorf("root covers [%d,%d), want [0,%d)", lo, hi, c.bins)
		}
		// Every level partitions the leaves exactly.
		for l := 0; l < tr.NumLevels(); l++ {
			covered := 0
			for i := 0; i < tr.LevelWidth(l); i++ {
				lo, hi := tr.Leaves(NodeRef{Level: l, Index: i})
				if lo != covered {
					t.Fatalf("level %d node %d starts at %d, want %d", l, i, lo, covered)
				}
				covered = hi
			}
			if covered != c.bins {
				t.Fatalf("level %d covers %d leaves, want %d", l, covered, c.bins)
			}
		}
	}
}

func TestTreeLeavesPanicsOutOfTree(t *testing.T) {
	s, _ := FromBounds([]float64{0, 1, 2})
	tr, _ := NewTree(s, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Leaves(NodeRef{Level: 0, Index: 5})
}

// Select must agree exactly with the flat SelectBins classification:
// expanded inside subtrees == aligned bins, boundary == misaligned, and
// the pruning accounting must partition the leaf space.
func TestTreeSelectMatchesFlat(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nbins := 1 + r.Intn(60)
		fanout := 2 + r.Intn(5)
		bounds := make([]float64, 0, nbins+1)
		v := r.Float64() * 10
		bounds = append(bounds, v)
		for len(bounds) < nbins+1 {
			v += 0.1 + r.Float64()*5
			bounds = append(bounds, v)
		}
		s, err := FromBounds(bounds)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTree(s, fanout)
		if err != nil {
			t.Fatal(err)
		}
		lo := bounds[0] - 2 + r.Float64()*(v-bounds[0]+4)
		hi := lo + r.Float64()*(v-bounds[0]+2)
		vc := ValueConstraint{Min: lo, Max: hi}

		sel := tr.Select(vc)
		aligned, mis := s.SelectBins(vc)

		if got := insideLeaves(tr, sel); !equalInts(got, aligned) {
			t.Fatalf("trial %d (bins=%d fanout=%d vc=%+v): inside leaves %v != aligned %v",
				trial, nbins, fanout, vc, got, aligned)
		}
		if !equalInts(sel.Boundary, mis) {
			t.Fatalf("trial %d: boundary %v != misaligned %v", trial, sel.Boundary, mis)
		}
		if sel.CoveredLeaves+sel.PrunedLeaves+len(sel.Boundary) != nbins {
			t.Fatalf("trial %d: covered %d + pruned %d + boundary %d != %d",
				trial, sel.CoveredLeaves, sel.PrunedLeaves, len(sel.Boundary), nbins)
		}
		if sel.NodesVisited < 1 || sel.NodesVisited > tr.NumNodes() {
			t.Fatalf("trial %d: visited %d nodes of %d", trial, sel.NodesVisited, tr.NumNodes())
		}
		// Inside roots must be maximal: sorted by leaf order, disjoint.
		prev := -1
		for _, n := range sel.Inside {
			l, h := tr.Leaves(n)
			if l <= prev {
				t.Fatalf("trial %d: inside roots overlap or out of order", trial)
			}
			prev = h - 1
		}
	}
}

// A wide aligned constraint must resolve near the root, not per leaf.
func TestTreeSelectPrunesWork(t *testing.T) {
	bounds := make([]float64, 257)
	for i := range bounds {
		bounds[i] = float64(i)
	}
	s, _ := FromBounds(bounds)
	tr, _ := NewTree(s, 4)

	// Fully covering constraint: the root alone answers it.
	sel := tr.Select(ValueConstraint{Min: 0, Max: 256})
	if len(sel.Inside) != 1 || sel.Inside[0] != tr.Root() {
		t.Fatalf("full-range inside = %v", sel.Inside)
	}
	if sel.NodesVisited != 1 {
		t.Fatalf("full-range visited %d nodes, want 1", sel.NodesVisited)
	}

	// Fully disjoint constraint: root prunes everything.
	sel = tr.Select(ValueConstraint{Min: 500, Max: 600})
	if sel.PrunedLeaves != 256 || sel.NodesVisited != 1 {
		t.Fatalf("disjoint: pruned %d, visited %d", sel.PrunedLeaves, sel.NodesVisited)
	}

	// A 25% aligned range touches O(fanout·depth) nodes, far fewer than
	// one probe per bin.
	sel = tr.Select(ValueConstraint{Min: 0, Max: 64})
	if sel.NodesVisited >= 64 {
		t.Fatalf("quarter-range visited %d nodes, want far fewer than 64", sel.NodesVisited)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if !sort.IntsAreSorted(a) || !sort.IntsAreSorted(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// insideLeaves expands the selection's Inside subtree roots to their
// leaf bins in ascending order — the hierarchical counterpart of
// SelectBins' aligned list.
func insideLeaves(t *Tree, sel Selection) []int {
	out := make([]int, 0, sel.CoveredLeaves)
	for _, n := range sel.Inside {
		lo, hi := t.Leaves(n)
		for b := lo; b < hi; b++ {
			out = append(out, b)
		}
	}
	return out
}
