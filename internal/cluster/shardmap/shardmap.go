// Package shardmap places cluster keys — variable/bin-range shards —
// onto data nodes with a consistent-hash ring.
//
// Two properties make the ring the right placement structure for a
// scatter-gather cluster:
//
//   - Determinism: placement is a pure function of (seed, node set,
//     replication). Nodes are sorted before hashing, so the order they
//     joined in, map iteration order, and the process that computes the
//     map are all irrelevant — a router restarted against the same
//     topology routes identically, and every router in a fleet agrees.
//   - Bounded movement: when a node joins or leaves, only the keys in
//     the ring arcs it gains or loses move; the expected fraction is
//     K/N of the keys, not a full reshuffle. Virtual nodes (many ring
//     points per node) keep arc sizes — and therefore both load and
//     movement — close to that expectation.
//
// Keys are free-form strings; the router uses "var/slab<i>" so each
// variable's storage-order row ranges spread independently.
package shardmap

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Config parameterizes ring construction.
type Config struct {
	// Seed perturbs every hash, so disjoint clusters built from the
	// same node names get independent placements. Default 1.
	Seed uint64
	// Replication is how many distinct nodes own each key (primary
	// first). Values above the node count are clamped. Default 2.
	Replication int
}

// virtualNodes is the ring points per node; more points smooth the load
// split at the cost of a larger ring.
const virtualNodes = 64

func (c *Config) normalize(nodes int) {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > nodes {
		c.Replication = nodes
	}
}

// point is one ring position owned by a node.
type point struct {
	hash uint64
	node int // index into Map.nodes
}

// Map is an immutable consistent-hash placement. Build with New;
// concurrent readers need no locking.
type Map struct {
	cfg   Config
	nodes []string
	ring  []point
}

// New builds the placement for a node set. The input slice is not
// retained; nodes are sorted and must be unique and nonempty.
func New(cfg Config, nodes []string) (*Map, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shardmap: at least one node is required")
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("shardmap: empty node name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("shardmap: duplicate node %q", n)
		}
	}
	cfg.normalize(len(sorted))
	m := &Map{cfg: cfg, nodes: sorted}
	m.ring = make([]point, 0, len(sorted)*virtualNodes)
	for ni, n := range sorted {
		for v := 0; v < virtualNodes; v++ {
			m.ring = append(m.ring, point{hash: m.hash(fmt.Sprintf("%s#%d", n, v)), node: ni})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool {
		if m.ring[i].hash != m.ring[j].hash {
			return m.ring[i].hash < m.ring[j].hash
		}
		// Hash collisions resolve by node index so placement stays a
		// pure function of the sorted node set.
		return m.ring[i].node < m.ring[j].node
	})
	return m, nil
}

// hash folds the seed into an FNV-64a digest of s and avalanches the
// result. The finalizer matters: FNV's last input bytes pass through
// only a couple of prime multiplies, so similar strings — node
// addresses sharing an IP, "#<v>" virtual-node suffixes — stay
// correlated in the high bits that ring ordering sorts by, which skews
// arc sizes badly. Full-width mixing restores a uniform ring.
func (m *Map) hash(s string) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(m.cfg.Seed >> (8 * i))
	}
	h.Write(seed[:])   //mlocvet:ignore uncheckederr -- hash.Hash.Write never returns an error by contract
	h.Write([]byte(s)) //mlocvet:ignore uncheckederr -- hash.Hash.Write never returns an error by contract
	return mix(h.Sum64())
}

// mix is a 64-bit avalanche finalizer (the murmur3/splitmix constants):
// every input bit flips each output bit with probability ~1/2.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Nodes returns the sorted node set the map was built over.
func (m *Map) Nodes() []string { return append([]string(nil), m.nodes...) }

// Replication returns the effective (clamped) replication factor.
func (m *Map) Replication() int { return m.cfg.Replication }

// Owners returns the nodes owning key, primary first: the first
// Replication distinct nodes clockwise from the key's ring position.
func (m *Map) Owners(key string) []string {
	kh := m.hash(key)
	start := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= kh })
	owners := make([]string, 0, m.cfg.Replication)
	seen := make(map[int]bool, m.cfg.Replication)
	for i := 0; len(owners) < m.cfg.Replication && i < len(m.ring); i++ {
		p := m.ring[(start+i)%len(m.ring)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		owners = append(owners, m.nodes[p.node])
	}
	return owners
}
