package core

import (
	"encoding/binary"
	"fmt"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/grid"
	"mloc/internal/obs"
	"mloc/internal/pfs"
)

// The vindex is the hierarchical V-level index: one subfile holding a
// WAH bitmap per inner node (level >= 1) of the super-bin tree
// (binning.Tree), level 1 first, root last. A node's bitmap holds the
// positions of every point whose value falls in the node's bin range,
// so an index-only range query answers a fully-inside subtree with a
// single bitmap read from this one file instead of per-bin index-file
// opens, following the multi-level bin tree of arXiv 2108.13735. A leaf
// is not stored: its bitmap is its bin's per-unit offsets, which the
// bin path reads anyway.
//
// File layout, version 2 (little endian):
//
//	0   magic "MLVX"
//	4   version  uint32
//	8   fanout   uint32
//	12  nbins    uint32
//	16  nlevels  uint32
//	20  nnodes   uint32  (inner nodes: the tree's nodes less its leaves)
//	24  bitLen   uint64  (grid element count; every bitmap's length)
//	32  table    nnodes × {off uint64, len uint32} (absolute offsets)
//	..  payloads WAH MarshalBinary bytes
const (
	vindexMagic      = "MLVX"
	vindexVersion    = 2
	vindexHeaderSize = 32
	vindexEntrySize  = 12
)

func vindexPath(prefix string) string { return prefix + "/vindex" }

// vindex is the runtime view: the tree shape plus the node offset
// table, loaded at Open; payloads are fetched per query.
type vindex struct {
	tree *binning.Tree
	path string
	// ost is the OST the subfile starts on, for pricing node reads.
	ost    int
	size   int64
	bitLen int64
	offs   []int64
	lens   []int64
}

// holds reports whether the vindex stores n's bitmap: every inner node
// of a store that has a vindex, no leaf.
func (v *vindex) holds(n binning.NodeRef) bool { return v != nil && n.Level > 0 }

// nodeID maps an inner node to its slot in the offset table: levels are
// stored bottom-up from level 1, each level in index order.
func (v *vindex) nodeID(n binning.NodeRef) int {
	id := n.Index
	for l := 1; l < n.Level; l++ {
		id += v.tree.LevelWidth(l)
	}
	return id
}

// buildVindex builds the inner nodes' bitmaps from the pass-1 binned
// points and writes the vindex subfile. A level-1 node's bitmap sets
// the global row-major position of every point of the bins under it;
// each higher level is the fanout-wise OR of the level below, all in
// WAH form. The build is serial and deterministic. CPU is
// charged to clk per level, and the span records one event per level so
// the virtual-clock charging is attributable. A tree with no inner
// level writes no file and returns nil.
func buildVindex(fs *pfs.Sim, clk *pfs.Clock, prefix string, tree *binning.Tree, shape grid.Shape, chunks *grid.Chunking, perBin [][]rawUnit, sp *obs.Span) (*vindex, error) {
	nbins := tree.Scheme().NumBins()
	if len(perBin) != nbins {
		return nil, fmt.Errorf("core: vindex: %d bins of points for %d-bin tree", len(perBin), nbins)
	}
	if tree.NumLevels() == 1 {
		return nil, nil
	}
	bitLen := shape.Elems()
	dims := shape.Dims()
	strides := make([]int64, dims)
	strides[dims-1] = 1
	for d := dims - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * int64(shape[d+1])
	}
	widths := make([]int64, dims)
	bm := bitmap.New(bitLen) // one scratch bitmap, cleared per level-1 node
	var nodes []*bitmap.WAH  // in table order: level by level from level 1
	for l := 1; l < tree.NumLevels(); l++ {
		below := len(nodes) - tree.LevelWidth(l-1) // level l-1's first node, from level 2 on
		cpu := clk.MeasureCPU(func() {
			for i := 0; i < tree.LevelWidth(l); i++ {
				n := binning.NodeRef{Level: l, Index: i}
				if l > 1 {
					cl, ch := tree.Children(n)
					agg := nodes[below+cl]
					for c := cl + 1; c < ch; c++ {
						agg = agg.Or(nodes[below+c])
					}
					nodes = append(nodes, agg)
					continue
				}
				bm.Reset()
				lo, hi := tree.Leaves(n)
				for _, units := range perBin[lo:hi] {
					for _, u := range units {
						reg := chunks.ChunkRegionByID(u.chunkID)
						var base int64
						for d := 0; d < dims; d++ {
							base += int64(reg.Lo[d]) * strides[d]
							widths[d] = int64(reg.Hi[d] - reg.Lo[d])
						}
						for _, off := range u.offsets {
							rem := int64(off)
							lin := base
							for d := dims - 1; d >= 0; d-- {
								lin += (rem % widths[d]) * strides[d]
								rem /= widths[d]
							}
							bm.Set(lin)
						}
					}
				}
				nodes = append(nodes, bitmap.Compress(bm))
			}
		})
		sp.Event("level", 0, cpu).SetInt("level", int64(l))
	}

	// Serialize: header, offset table, payloads.
	nnodes := len(nodes)
	payloadOff := int64(vindexHeaderSize + vindexEntrySize*nnodes)
	offs := make([]int64, nnodes)
	lens := make([]int64, nnodes)
	buf := make([]byte, payloadOff)
	copy(buf, vindexMagic)
	binary.LittleEndian.PutUint32(buf[4:], vindexVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(tree.Fanout()))
	binary.LittleEndian.PutUint32(buf[12:], uint32(nbins))
	binary.LittleEndian.PutUint32(buf[16:], uint32(tree.NumLevels()))
	binary.LittleEndian.PutUint32(buf[20:], uint32(nnodes))
	binary.LittleEndian.PutUint64(buf[24:], uint64(bitLen))
	for i, w := range nodes {
		wb, err := w.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: vindex node %d: %w", i, err)
		}
		offs[i] = int64(len(buf))
		lens[i] = int64(len(wb))
		binary.LittleEndian.PutUint64(buf[vindexHeaderSize+vindexEntrySize*i:], uint64(offs[i]))
		binary.LittleEndian.PutUint32(buf[vindexHeaderSize+vindexEntrySize*i+8:], uint32(lens[i]))
		buf = append(buf, wb...)
	}
	if err := fs.WriteFile(clk, vindexPath(prefix), buf); err != nil {
		return nil, err
	}
	sp.SetInt("nodes", int64(nnodes))
	sp.SetInt("bytes", int64(len(buf)))
	return &vindex{
		tree:   tree,
		path:   vindexPath(prefix),
		ost:    fs.FileOST(vindexPath(prefix)),
		size:   int64(len(buf)),
		bitLen: bitLen,
		offs:   offs,
		lens:   lens,
	}, nil
}

// openVindex loads the vindex header and offset table (not the
// payloads) for a store whose tree is already reconstructed. Returns
// (nil, nil) when the store has no vindex subfile: such a store answers
// every inside subtree from its bins' offsets.
func openVindex(fs *pfs.Sim, clk *pfs.Clock, prefix string, tree *binning.Tree, bitLen int64) (*vindex, error) {
	path := vindexPath(prefix)
	if !fs.Exists(path) {
		return nil, nil
	}
	if err := fs.Open(clk, path); err != nil {
		return nil, err
	}
	hdr, err := fs.ReadAt(clk, path, 0, vindexHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("core: vindex header: %w", err)
	}
	if string(hdr[:4]) != vindexMagic {
		return nil, fmt.Errorf("core: vindex: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != vindexVersion {
		return nil, fmt.Errorf("core: vindex format version %d, this build serves version %d", v, vindexVersion)
	}
	fanout := int(binary.LittleEndian.Uint32(hdr[8:]))
	nbins := int(binary.LittleEndian.Uint32(hdr[12:]))
	nlevels := int(binary.LittleEndian.Uint32(hdr[16:]))
	nnodes := int(binary.LittleEndian.Uint32(hdr[20:]))
	gotBits := int64(binary.LittleEndian.Uint64(hdr[24:]))
	if nbins != tree.Scheme().NumBins() {
		return nil, fmt.Errorf("core: vindex has %d bins, store has %d", nbins, tree.Scheme().NumBins())
	}
	if gotBits != bitLen {
		return nil, fmt.Errorf("core: vindex covers %d positions, grid has %d", gotBits, bitLen)
	}
	inner := tree.NumNodes() - nbins
	if fanout != tree.Fanout() || nlevels != tree.NumLevels() || nnodes != inner {
		return nil, fmt.Errorf("core: vindex shape fanout %d, %d levels, %d inner nodes; the store's tree has %d, %d, %d",
			fanout, nlevels, nnodes, tree.Fanout(), tree.NumLevels(), inner)
	}
	table, err := fs.ReadAt(clk, path, vindexHeaderSize, int64(vindexEntrySize*nnodes))
	if err != nil {
		return nil, fmt.Errorf("core: vindex table: %w", err)
	}
	size, err := fs.Size(path)
	if err != nil {
		return nil, err
	}
	offs := make([]int64, nnodes)
	lens := make([]int64, nnodes)
	for i := 0; i < nnodes; i++ {
		offs[i] = int64(binary.LittleEndian.Uint64(table[vindexEntrySize*i:]))
		lens[i] = int64(binary.LittleEndian.Uint32(table[vindexEntrySize*i+8:]))
		if offs[i] < 0 || lens[i] < 0 || offs[i]+lens[i] > size {
			return nil, fmt.Errorf("core: vindex node %d extent [%d,%d) exceeds file size %d",
				i, offs[i], offs[i]+lens[i], size)
		}
	}
	return &vindex{tree: tree, path: path, ost: fs.FileOST(path), size: size, bitLen: bitLen, offs: offs, lens: lens}, nil
}
