package core

import (
	"encoding/binary"
	"math"
	"testing"

	"mloc/internal/binning"
	"mloc/internal/bitmap"
	"mloc/internal/compress"
	"mloc/internal/datagen"
	"mloc/internal/pfs"
	"mloc/internal/plod"
	"mloc/internal/query"
)

// BenchmarkCPURates calibrates pfs's rate table: each sub-benchmark runs
// one of the engines' or the build's own inner loops over one bin of a
// 256² GTS store (32² chunks, 100 bins, as the bench fixture is cut), or
// over the whole store where the build works on it whole, and reports
// the nanoseconds it takes per unit of the kind charged for that loop.
// Run it on an idle host, several times, and commit the medians:
//
//	go test ./internal/core -run '^$' -bench '^BenchmarkCPURates$' -benchtime 2000x -count 5
func BenchmarkCPURates(b *testing.B) {
	d := datagen.GTSLike(256, 256, 1)
	phi, _ := d.Var("phi")
	build := func(name string, cfg Config) *Store {
		cfg.NumBins = 100
		cfg.SampleSize = 1 << 14
		fs := pfs.New(pfs.DefaultConfig())
		st, err := Build(fs, pfs.NewClock(), "cal/"+name, d.Shape, phi.Data, cfg)
		if err != nil {
			b.Fatal(err)
		}
		return st
	}
	colCfg := DefaultConfig([]int{32, 32})
	colCfg.HierarchicalIndex = true
	col := build("col", colCfg)
	iso := build("iso", ISOConfig([]int{32, 32}))
	isa := build("isa", ISAConfig([]int{32, 32}))
	const bin = 50

	// piece returns unit u's piece q of the store's bin.
	piece := func(st *Store, u *unitMeta, q int) []byte {
		raw, err := st.fs.Peek(binDataPath(st.prefix, bin), u.pieceOff[q], u.pieceLen[q])
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}
	units := col.meta.bins[bin].units
	var points int64
	for i := range units {
		points += int64(units[i].count)
	}
	indexRaw, err := col.fs.Peek(binIndexPath(col.prefix, bin), 0, col.meta.bins[bin].indexSize)
	if err != nil {
		b.Fatal(err)
	}
	offsets := make([][]int32, len(units))
	planes := make([][][]byte, len(units))
	for i := range units {
		u := &units[i]
		if offsets[i], err = decodeOffsets(nil, indexRaw[u.indexOff:u.indexOff+u.indexLen], int(u.count)); err != nil {
			b.Fatal(err)
		}
		for q := 0; q < plod.NumPlanes; q++ {
			raw := piece(col, u, q)
			if want := int(u.count) * plod.PlaneWidth(q); len(raw) != want {
				if raw, err = compress.DecodeBytesMax(col.byteCodec, raw, nil, int64(want)); err != nil {
					b.Fatal(err)
				}
			}
			planes[i] = append(planes[i], raw)
		}
	}
	var nodes [][]byte
	for id := range col.vidx.offs {
		raw, err := col.fs.Peek(col.vidx.path, col.vidx.offs[id], col.vidx.lens[id])
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, raw)
	}
	wahs := make([]bitmap.WAH, len(nodes))
	var nodeBytes, nodeBits int64
	for i, raw := range nodes {
		if err := wahs[i].UnmarshalBinary(raw); err != nil {
			b.Fatal(err)
		}
		nodeBytes += int64(len(raw))
		nodeBits += wahs[i].Decompress().Count()
	}
	// FastBit's per-bin bitmaps, sparse where the vindex nodes are dense.
	n := d.Shape.Elems()
	perBin := make([]*bitmap.Bitmap, 100)
	for i := range perBin {
		perBin[i] = bitmap.New(n)
	}
	for i, v := range phi.Data {
		perBin[col.scheme.BinOf(v)].Set(int64(i))
	}
	var binWAH []*bitmap.WAH
	var binWords, binBits int64
	for _, pb := range perBin {
		w := bitmap.Compress(pb)
		binWAH = append(binWAH, w)
		binWords += w.Words()
		binBits += pb.Count()
	}

	// Deflate and the float codecs cost a fixed amount per unit and an
	// amount per byte or value: the per-byte or per-value rate comes from
	// one large stream (all 65 536 values as one unit), the fixed part
	// from the bin's own small units less that rate.
	var last float64 // the previous sub-benchmark's ns per unit
	run := func(name string, perOp int64, fn func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
			last = float64(b.Elapsed().Nanoseconds()) / float64(int64(b.N)*perOp)
			b.ReportMetric(last, "ns/unit")
		})
	}
	// fixed reports, and leaves in last, the ns per unit left when perOp
	// units at rate, and known ns besides, are taken from each op.
	fixed := func(name string, perOp, units int64, rate float64, fn func(), known ...float64) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
			op := float64(b.Elapsed().Nanoseconds())/float64(b.N) - rate*float64(perOp)
			for _, k := range known {
				op -= k
			}
			last = op / float64(units)
			b.ReportMetric(last, "ns/unit")
		})
	}
	whole := plod.Split(phi.Data)
	big, err := compress.AppendBytes(col.byteCodec, nil, whole[0])
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	run("inflate", int64(len(whole[0])), func() {
		buf, _ = compress.DecodeBytesMax(col.byteCodec, big, buf[:0], int64(len(whole[0])))
	})
	var streams, inflated int64
	for i := range units {
		for q := 0; q < compressPlanes; q++ {
			if want := int64(units[i].count) * int64(plod.PlaneWidth(q)); int64(len(piece(col, &units[i], q))) != want {
				streams++
				inflated += want
			}
		}
	}
	fixed("inflate_stream", inflated, streams, last, func() {
		for i := range units {
			u := &units[i]
			for q := 0; q < compressPlanes; q++ {
				want := int64(u.count) * int64(plod.PlaneWidth(q))
				if raw := piece(col, u, q); int64(len(raw)) != want {
					buf, _ = compress.DecodeBytesMax(col.byteCodec, raw, buf[:0], want)
				}
			}
		}
	})
	var scratch []int32
	run("offset", points, func() {
		for i := range units {
			u := &units[i]
			scratch, _ = decodeOffsets(scratch[:0], indexRaw[u.indexOff:u.indexOff+u.indexLen], int(u.count))
		}
	})
	var vals []float64
	run("assemble", points, func() {
		for i := range units {
			vals = plod.Assemble(planes[i], plod.MaxLevel, int(units[i].count), plod.FillCentered, vals[:0])
		}
	})
	for _, c := range []struct {
		name string
		fc   compress.FloatCodec
		st   *Store
	}{{"raw", compress.RawFloats{}, nil}, {"isobar", iso.floatCodec, iso}, {"isabela", isa.floatCodec, isa}} {
		enc, err := c.fc.EncodeFloats(phi.Data)
		if err != nil {
			b.Fatal(err)
		}
		run(c.name+"_value", int64(len(phi.Data)), func() {
			vals, _ = c.fc.DecodeFloats(enc, vals[:0])
		})
		if c.st == nil {
			continue // no raw store: a raw unit is a copy, its fixed cost nil
		}
		us := c.st.meta.bins[bin].units
		var n int64
		for i := range us {
			n += int64(us[i].count)
		}
		fixed(c.name+"_unit", n, int64(len(us)), last, func() {
			for i := range us {
				vals, _ = c.st.floatCodec.DecodeFloats(piece(c.st, &us[i], 0), vals[:0])
			}
		})
	}
	run("bitmap_byte", nodeBytes, func() {
		var w bitmap.WAH
		for _, raw := range nodes {
			_ = w.UnmarshalBinary(raw)
		}
	})
	run("bit", nodeBits, func() {
		for i := range wahs {
			it := wahs[i].Bits()
			for _, ok := it.Next(); ok; _, ok = it.Next() {
			}
		}
	})
	bit := last
	run("bitmap_word", (n+63)/64, func() {
		bitmap.New(n).Each(func(int64) {})
	})
	// FastBit's decode: each bin's bitmap expanded and its bits visited,
	// less the positions scanned and the bits, per compressed word.
	span := last * float64(len(binWAH)) * float64((n+63)/64)
	fixed("wah_word", 0, binWords, 0, func() {
		for _, w := range binWAH {
			w.Decompress().Each(func(int64) {})
		}
	}, span+bit*float64(binBits))

	// The filter-and-emit loop, every point tested and none emitted (an
	// empty position set).
	p := col.newPlan(plod.MaxLevel)
	p.indexOnly = true
	none := bitmap.New(col.meta.shape.Elems())
	out := &rankOut{sc: &rankScratch{}}
	out.sc.setGrid(col.meta.shape)
	p.positions = none
	run("point", points, func() {
		for i := range units {
			col.emitUnit(task{bin: bin, unit: i}, &units[i], p, offsets[i], nil, out)
		}
	})

	raw := make([]byte, 8*points)
	for i := range points {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(phi.Data[i]))
	}
	// A raw scan testing every value against a window that takes none,
	// then against one that takes all: the difference is the match.
	var matches []query.Match
	scan := func(vc binning.ValueConstraint) func() {
		return func() {
			matches = matches[:0]
			for j := range points {
				v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
				if !vc.Contains(v) {
					continue
				}
				matches = append(matches, query.Match{Index: j, Value: v})
			}
		}
	}
	run("scan", points, scan(binning.ValueConstraint{Min: math.Inf(1), Max: math.Inf(1)}))
	fixed("match", points, points, last, scan(binning.ValueConstraint{Min: math.Inf(-1), Max: math.Inf(1)}))

	// The build. Its loops cost a fixed amount per unit (a chunk's
	// points in one bin) and an amount per value: the per-value rate
	// comes from a one-bin store of the same data and chunks, whose units
	// hold 1 024 values each, the fixed part from the fixture's bin less
	// that rate (pass 1: from the whole fixture, which it bins whole).
	oneCfg := DefaultConfig([]int{32, 32})
	oneCfg.ByteCodec = compress.RawBytes{} // a copy: the split without deflate
	oneCfg.NumBins = 1
	one, err := Build(pfs.New(pfs.DefaultConfig()), pfs.NewClock(), "cal/one", d.Shape, phi.Data, oneCfg)
	if err != nil {
		b.Fatal(err)
	}
	order := chunkStorageOrder(col.chunks, col.curve)
	bins := func(st *Store) ([][]rawUnit, int64) {
		return binChunks(st.chunks, order, phi.Data, st.scheme, st.scheme.NumBins(), 1)
	}
	raws, nunits := bins(col)
	ones, _ := bins(one)
	whole1 := ones[0]
	run("bin", n, func() { bins(one) })
	fixed("bin_unit", n, nunits, last, func() { bins(col) })
	var bm, bm1 binMeta
	encodeBinIndex(&bm, raws[bin]) // the split's unit table, if it runs alone
	encodeBinIndex(&bm1, whole1)
	run("offset_encode", n, func() { encodeBinIndex(&bm1, whole1) })
	fixed("offset_unit", points, int64(len(raws[bin])), last, func() { encodeBinIndex(&bm, raws[bin]) })
	// The split with a raw byte codec, which copies the piece: per
	// value from the one-bin store, per unit from the fixture's bin.
	sc := new(encodeScratch)
	rawCfg := colCfg
	rawCfg.ByteCodec = compress.RawBytes{}
	run("split", n, func() { _, _, _, _ = encodePlanesBin(&bm1, whole1, oneCfg, sc) })
	split := last
	fixed("split_unit", points, int64(len(raws[bin])), split, func() {
		_, _, _, _ = encodePlanesBin(&bm, raws[bin], rawCfg, sc)
	})
	splitUnits := last * float64(len(raws[bin]))
	// Deflate per byte from one large stream; per call from the bin's
	// split with the zlib codec less the raw split and those bytes.
	run("deflate", int64(len(whole[0])), func() {
		buf, _ = compress.AppendBytes(col.byteCodec, buf[:0], whole[0])
	})
	_, calls, deflated, err := encodePlanesBin(&bm, raws[bin], colCfg, sc)
	if err != nil {
		b.Fatal(err)
	}
	fixed("deflate_call", deflated, calls, last, func() {
		_, _, _, _ = encodePlanesBin(&bm, raws[bin], colCfg, sc)
	}, split*float64(points), splitUnits)
	for _, c := range []struct {
		name string
		fc   compress.FloatCodec
		st   *Store
	}{{"raw", compress.RawFloats{}, nil}, {"isobar", iso.floatCodec, iso}, {"isabela", isa.floatCodec, isa}} {
		run(c.name+"_encode_value", int64(len(phi.Data)), func() {
			buf, _ = compress.AppendFloats(c.fc, buf[:0], phi.Data)
		})
		if c.st == nil {
			continue // a raw unit is an append, its fixed cost nil
		}
		perBin, _ := bins(c.st)
		us := perBin[bin]
		var values int64
		for _, u := range us {
			values += int64(len(u.values))
		}
		fixed(c.name+"_encode_unit", values, int64(len(us)), last, func() {
			for _, u := range us {
				buf, _ = compress.AppendFloats(c.fc, buf[:0], u.values)
			}
		})
	}
	set := bitmap.New(n)
	var psc rankScratch
	psc.setGrid(col.meta.shape)
	run("position", n, func() {
		setPositions(set, col.chunks, &psc, whole1)
	})
	position := last
	fixed("position_unit", n, nunits, position, func() {
		for _, units := range raws {
			setPositions(set, col.chunks, &psc, units)
		}
	})
	positions := position*float64(n) + last*float64(nunits)
	// The vindex build less its positions, per group produced: each
	// level-1 node's Reset and Compress, each Or of the levels above,
	// and the marshalled file.
	var produced int64
	groups := (n + 30) / 31
	for l := 1; l < col.tree.NumLevels(); l++ {
		for i := 0; i < col.tree.LevelWidth(l); i++ {
			if l == 1 {
				produced += groups
				continue
			}
			lo, hi := col.tree.Children(binning.NodeRef{Level: l, Index: i})
			produced += int64(hi-lo-1) * groups
		}
	}
	vfs := pfs.New(pfs.DefaultConfig())
	fixed("wah_group", 0, produced, 0, func() {
		if _, err := buildVindex(vfs, pfs.NewClock(), "cal/v", col.tree, col.meta.shape, col.chunks, raws, nil); err != nil {
			b.Fatal(err)
		}
	}, positions)
}
