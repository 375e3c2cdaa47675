package shardmap

import (
	"fmt"
	"reflect"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("var%d/slab%d", i%7, i)
	}
	return out
}

// TestDeterministicAcrossRunsAndJoinOrder is the placement contract:
// the same topology and seed produce identical owners, however the
// node list was ordered and however many times the map is rebuilt.
func TestDeterministicAcrossRunsAndJoinOrder(t *testing.T) {
	cfg := Config{Seed: 42, Replication: 2}
	orders := [][]string{
		{"n1:8081", "n2:8082", "n3:8083"},
		{"n3:8083", "n1:8081", "n2:8082"},
		{"n2:8082", "n3:8083", "n1:8081"},
	}
	var want map[string][]string
	for _, nodes := range orders {
		for run := 0; run < 3; run++ {
			m, err := New(cfg, nodes)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[string][]string)
			for _, k := range keys(500) {
				got[k] = m.Owners(k)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("placement differs for join order %v run %d", nodes, run)
			}
		}
	}
}

func TestSeedChangesPlacement(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	m1, err := New(Config{Seed: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New(Config{Seed: 2}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys(1000) {
		if m1.Owners(k)[0] != m2.Owners(k)[0] {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("seed change moved no keys; seed is not folded into the hash")
	}
}

func TestOwnersDistinctAndClamped(t *testing.T) {
	m, err := New(Config{Replication: 5}, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Replication() != 3 {
		t.Fatalf("replication = %d, want clamped to 3", m.Replication())
	}
	for _, k := range keys(200) {
		owners := m.Owners(k)
		if len(owners) != 3 {
			t.Fatalf("key %q has %d owners, want 3", k, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("key %q repeats owner %q", k, o)
			}
			seen[o] = true
		}
	}
}

func TestEveryNodeOwnsSomething(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	m, err := New(Config{Replication: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	load := map[string]int{}
	for _, k := range keys(5000) {
		load[m.Owners(k)[0]]++
	}
	for _, n := range nodes {
		if load[n] == 0 {
			t.Fatalf("node %q owns no keys: %v", n, load)
		}
	}
}

// TestRebalanceBoundedOnJoin asserts the consistent-hashing movement
// bound: adding one node to N moves roughly K/(N+1) primaries — only
// the keys the new node takes over — never a reshuffle, and no key
// moves between two surviving nodes.
func TestRebalanceBoundedOnJoin(t *testing.T) {
	cfg := Config{Seed: 7, Replication: 1}
	before, err := New(cfg, []string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	after, err := New(cfg, []string{"a", "b", "c", "d", "e", "f"})
	if err != nil {
		t.Fatal(err)
	}
	ks := keys(6000)
	moved := 0
	for _, k := range ks {
		p0, p1 := before.Owners(k)[0], after.Owners(k)[0]
		if p0 == p1 {
			continue
		}
		if p1 != "f" {
			t.Fatalf("key %q moved %q -> %q, not to the joining node", k, p0, p1)
		}
		moved++
	}
	expected := len(ks) / 6
	if moved == 0 {
		t.Fatal("joining node took no keys")
	}
	// Virtual nodes keep arcs near uniform; 2x the ideal share is a
	// generous ceiling that still rules out a reshuffle.
	if moved > 2*expected {
		t.Fatalf("join moved %d of %d keys, want <= %d (~2x ideal %d)",
			moved, len(ks), 2*expected, expected)
	}
}

// TestRebalanceBoundedOnLeave is the converse: removing a node moves
// exactly the keys it owned, nothing between survivors.
func TestRebalanceBoundedOnLeave(t *testing.T) {
	cfg := Config{Seed: 7, Replication: 1}
	before, err := New(cfg, []string{"a", "b", "c", "d", "e"})
	if err != nil {
		t.Fatal(err)
	}
	after, err := New(cfg, []string{"a", "b", "c", "e"})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys(6000) {
		p0, p1 := before.Owners(k)[0], after.Owners(k)[0]
		if p0 == "d" {
			if p1 == "d" {
				t.Fatalf("key %q still on removed node", k)
			}
			continue
		}
		if p0 != p1 {
			t.Fatalf("key %q moved %q -> %q though its owner survived", k, p0, p1)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("empty node set accepted")
	}
	if _, err := New(Config{}, []string{"a", "a"}); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := New(Config{}, []string{""}); err == nil {
		t.Error("empty node name accepted")
	}
}

// TestBalanceWithSimilarNodeNames guards the hash finalizer: realistic
// node addresses differ only in their last characters (same IP,
// nearby ports), which skewed raw FNV ring positions to an 80/20
// split. Every node must carry a sane share of primaries.
func TestBalanceWithSimilarNodeNames(t *testing.T) {
	nodes := []string{"127.0.0.1:34837", "127.0.0.1:40111", "127.0.0.1:40112"}
	m, err := New(Config{Seed: 1, Replication: 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int, len(nodes))
	const total = 3000
	for _, k := range keys(total) {
		counts[m.Owners(k)[0]]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / total
		if share < 0.15 || share > 0.55 {
			t.Fatalf("node %s holds %.0f%% of primaries (counts %v); ring is skewed",
				n, 100*share, counts)
		}
	}
}
