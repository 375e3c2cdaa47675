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
// WAH bitmap per node of the super-bin tree (binning.Tree), level 0
// (the leaves) first, root last. A node's bitmap is the OR of its
// children's — the positions of every point whose value falls in the
// node's bin range — so an index-only range query answers a
// fully-inside subtree with a single bitmap read from this one file
// instead of per-bin index-file opens, following the multi-level bin
// tree of arXiv 2108.13735.
//
// File layout (little endian):
//
//	0   magic "MLVX"
//	4   version  uint32
//	8   fanout   uint32
//	12  nbins    uint32
//	16  nlevels  uint32
//	20  nnodes   uint32
//	24  bitLen   uint64  (grid element count; every bitmap's length)
//	32  table    nnodes × {off uint64, len uint32} (absolute offsets)
//	..  payloads WAH MarshalBinary bytes
const (
	vindexMagic      = "MLVX"
	vindexVersion    = 1
	vindexHeaderSize = 32
	vindexEntrySize  = 12
)

func vindexPath(prefix string) string { return prefix + "/vindex" }

// vindex is the runtime view: the tree shape plus the node offset
// table, loaded at Open; payloads are fetched per query.
type vindex struct {
	tree   *binning.Tree
	path   string
	size   int64
	bitLen int64
	offs   []int64
	lens   []int64
}

// nodeID maps a NodeRef to its slot in the offset table: levels are
// stored bottom-up, each level in index order.
func (v *vindex) nodeID(n binning.NodeRef) int {
	id := n.Index
	for l := 0; l < n.Level; l++ {
		id += v.tree.LevelWidth(l)
	}
	return id
}

// buildVindex constructs the super-bin tree bitmaps from the pass-1
// binned points and writes the vindex subfile. Leaf bitmaps come from
// the per-bin (chunk, offsets) lists mapped to global row-major
// positions; each inner level is the fanout-wise OR of the level below,
// all in WAH form so long runs never materialize. The build is serial
// and deterministic. Aggregation CPU is charged to clk per level, and
// the span records one event per level so the virtual-clock charging is
// attributable.
func buildVindex(fs *pfs.Sim, clk *pfs.Clock, prefix string, tree *binning.Tree, shape grid.Shape, chunks *grid.Chunking, perBin [][]rawUnit, sp *obs.Span) (*vindex, error) {
	nbins := tree.Scheme().NumBins()
	if len(perBin) != nbins {
		return nil, fmt.Errorf("core: vindex: %d bins of points for %d-bin tree", len(perBin), nbins)
	}
	bitLen := shape.Elems()
	nodes := make([]*bitmap.WAH, tree.NumNodes())

	// Level 0: leaf bitmaps from the binned points.
	cpu := clk.MeasureCPU(func() {
		dims := shape.Dims()
		strides := make([]int64, dims)
		strides[dims-1] = 1
		for d := dims - 2; d >= 0; d-- {
			strides[d] = strides[d+1] * int64(shape[d+1])
		}
		widths := make([]int64, dims)
		bm := bitmap.New(bitLen) // one scratch bitmap, cleared per bin
		for b := 0; b < nbins; b++ {
			bm.Reset()
			for _, u := range perBin[b] {
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
			nodes[b] = bitmap.Compress(bm)
		}
	})
	sp.Event("level", 0, cpu).SetInt("level", 0)

	// Upper levels: OR-aggregate children.
	base := 0
	for l := 1; l < tree.NumLevels(); l++ {
		childBase := base
		base += tree.LevelWidth(l - 1)
		lvlCPU := clk.MeasureCPU(func() {
			for i := 0; i < tree.LevelWidth(l); i++ {
				ref := binning.NodeRef{Level: l, Index: i}
				cl, ch := tree.Children(ref)
				agg := nodes[childBase+cl]
				for c := cl + 1; c < ch; c++ {
					agg = agg.Or(nodes[childBase+c])
				}
				nodes[base+i] = agg
			}
		})
		sp.Event("level", 0, lvlCPU).SetInt("level", int64(l))
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
		size:   int64(len(buf)),
		bitLen: bitLen,
		offs:   offs,
		lens:   lens,
	}, nil
}

// openVindex loads the vindex header and offset table (not the
// payloads) for a store whose scheme is already reconstructed. Returns
// (nil, nil) when the store has no vindex subfile — flat stores stay
// flat.
func openVindex(fs *pfs.Sim, clk *pfs.Clock, prefix string, scheme *binning.Scheme, bitLen int64) (*vindex, error) {
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
		return nil, fmt.Errorf("core: vindex: unsupported version %d", v)
	}
	fanout := int(binary.LittleEndian.Uint32(hdr[8:]))
	nbins := int(binary.LittleEndian.Uint32(hdr[12:]))
	nlevels := int(binary.LittleEndian.Uint32(hdr[16:]))
	nnodes := int(binary.LittleEndian.Uint32(hdr[20:]))
	gotBits := int64(binary.LittleEndian.Uint64(hdr[24:]))
	if nbins != scheme.NumBins() {
		return nil, fmt.Errorf("core: vindex has %d bins, store has %d", nbins, scheme.NumBins())
	}
	if gotBits != bitLen {
		return nil, fmt.Errorf("core: vindex covers %d positions, grid has %d", gotBits, bitLen)
	}
	tree, err := binning.NewTree(scheme, fanout)
	if err != nil {
		return nil, err
	}
	if tree.NumLevels() != nlevels || tree.NumNodes() != nnodes {
		return nil, fmt.Errorf("core: vindex shape %d levels/%d nodes, tree has %d/%d",
			nlevels, nnodes, tree.NumLevels(), tree.NumNodes())
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
	return &vindex{tree: tree, path: path, size: size, bitLen: bitLen, offs: offs, lens: lens}, nil
}
