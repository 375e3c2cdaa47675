package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"mloc/internal/plod"
	"mloc/internal/server"
)

// request is one pre-generated query: the body the client posts and
// what the oracle needs to check the answer.
type request struct {
	kind int // index into requestKinds
	wire server.QueryWire
	body []byte
	spec *storeSpec
	// relTol is the per-point relative error the answer may carry: the
	// store's codec bound, or the PLoD bound for reduced-precision
	// reads. Zero demands bit-equal values and the exact index set.
	relTol float64
}

// Per-client list lengths at -scale 1. The measured pass cycles through
// a list until -seconds have passed (or walks it once with -seconds 0),
// so these fix the request mix, not the run length. They are sized so
// one walk takes 5-10 s at the seed commit.
var listLen = map[string]int{
	"region_index": 3000,
	"value_subvol": 750,
	"hot_repeat":   9000,
	"routed_mix":   800,
}

const (
	hotPool    = 64 // distinct requests in hot_repeat
	numClients = 2
)

// subvolSide is the side of a sub-volume request's box: an eighth of a
// 2-D field's side (64 of 512), a quarter of a 3-D field's (16 of 64) —
// two to three chunks across either way.
func subvolSide(spec *storeSpec) int {
	if len(spec.shape) == 3 {
		return spec.shape[0] / 4
	}
	return spec.shape[0] / 8
}

// reqGen draws requests for one workload from one seeded source.
type reqGen struct {
	r      *rand.Rand
	stores map[string]*storeSpec
	// sorted is a sorted sample of phi, for selectivity windows.
	sorted []float64
}

func kindIndex(name string) int {
	for i, k := range requestKinds {
		if k == name {
			return i
		}
	}
	panic("unknown request kind " + name)
}

func (g *reqGen) finish(kind string, spec *storeSpec, w server.QueryWire, relTol float64) (*request, error) {
	w.Var = spec.name
	body, err := json.Marshal(&w)
	if err != nil {
		return nil, err
	}
	return &request{kind: kindIndex(kind), wire: w, body: body, spec: spec, relTol: relTol}, nil
}

// valueWindow returns a value constraint covering about frac of phi,
// at a random quantile — the draw datagen.Selectivity makes, from a
// sample sorted once.
func (g *reqGen) valueWindow(frac float64) *server.VCWire {
	width := int(float64(len(g.sorted)) * frac)
	if width < 1 {
		width = 1
	}
	start := g.r.Intn(len(g.sorted) - width)
	lo, hi := g.sorted[start], g.sorted[start+width-1]
	return &server.VCWire{Min: &lo, Max: &hi}
}

// box returns a random axis-aligned box of the given side inside the
// spec's grid.
func (g *reqGen) box(spec *storeSpec, side int) *server.SCWire {
	sc := &server.SCWire{Lo: make([]int, len(spec.shape)), Hi: make([]int, len(spec.shape))}
	for d, n := range spec.shape {
		sc.Lo[d] = g.r.Intn(n - side + 1)
		sc.Hi[d] = sc.Lo[d] + side
	}
	return sc
}

// regionIndex cycles four selectivities. Up to 1 % a window sits inside
// one or two of the 100 bins, so boundary-bin decode answers it; the 5 %
// window covers whole bins, which the index tree answers from its nodes
// without decoding a value.
func (g *reqGen) regionIndex(i int) (*request, error) {
	sels := []struct {
		kind string
		frac float64
	}{{"sel0.1", 0.001}, {"sel0.25", 0.0025}, {"sel1", 0.01}, {"sel5", 0.05}}
	s := sels[i%len(sels)]
	spec := g.stores["phi_col"]
	if (i/len(sels))%2 == 1 {
		spec = g.stores["phi_iso"]
	}
	return g.finish(s.kind, spec, server.QueryWire{VC: g.valueWindow(s.frac), IndexOnly: true}, 0)
}

func (g *reqGen) valueSubvol(i int) (*request, error) {
	switch i % 5 {
	case 0:
		spec := g.stores["phi_col"]
		return g.finish("col_full", spec, server.QueryWire{SC: g.box(spec, subvolSide(spec))}, 0)
	case 1:
		spec := g.stores["phi_iso"]
		return g.finish("iso_full", spec, server.QueryWire{SC: g.box(spec, subvolSide(spec))}, 0)
	case 2:
		spec := g.stores["phi_isa"]
		return g.finish("isa_full", spec, server.QueryWire{SC: g.box(spec, subvolSide(spec))}, spec.relTol)
	case 3:
		spec := g.stores["phi_col"]
		return g.finish("col_plod2", spec, server.QueryWire{SC: g.box(spec, subvolSide(spec)), PLoD: 2},
			plod.RelErrorBound(2, plod.FillCentered))
	default:
		spec := g.stores["temp_col"]
		return g.finish("s3d_full", spec, server.QueryWire{SC: g.box(spec, subvolSide(spec))}, 0)
	}
}

// hotRequest builds pool entry i: a box on phi_col twice a sub-volume's
// side (128×128) with a value window cut from the box's own values so
// that a sixteenth of its points (1024) qualify. Every third entry
// reads at PLoD level 3.
func (g *reqGen) hotRequest(i int) (*request, error) {
	spec := g.stores["phi_col"]
	sc := g.box(spec, 2*subvolSide(spec))
	var vals []float64
	forEachInBox(spec.shape, sc.Lo, sc.Hi, func(lin int64) { vals = append(vals, spec.data[lin]) })
	sort.Float64s(vals)
	matches := len(vals) / 16
	start := g.r.Intn(len(vals) - matches)
	lo, hi := vals[start], vals[start+matches-1]
	w := server.QueryWire{SC: sc, VC: &server.VCWire{Min: &lo, Max: &hi}}
	if i%3 == 2 {
		w.PLoD = 3
		return g.finish("hot_plod3", spec, w, plod.RelErrorBound(3, plod.FillCentered))
	}
	return g.finish("hot_full", spec, w, 0)
}

func (g *reqGen) routedMix(i int) (*request, error) {
	if i%2 == 0 {
		spec := g.stores["phi_col"]
		return g.finish("routed_region", spec, server.QueryWire{VC: g.valueWindow(0.0025), IndexOnly: true}, 0)
	}
	names := []string{"phi_col", "phi_iso", "phi_isa"}
	spec := g.stores[names[(i/2)%len(names)]]
	return g.finish("routed_subvol", spec, server.QueryWire{SC: g.box(spec, subvolSide(spec))}, spec.relTol)
}

// genRequests returns one request list per client. Lists depend only
// on the seed, the workload and the scale.
func genRequests(workload string, stores map[string]*storeSpec, seed int64, scale float64) ([][]*request, error) {
	n := int(float64(listLen[workload]) * scale)
	if n < 2*len(requestKinds) {
		n = 2 * len(requestKinds) // every kind at least once per client, even in smoke runs
	}
	phi := stores["phi_col"].data
	sample := make([]float64, 1<<16)
	sr := rand.New(rand.NewSource(seed))
	for i := range sample {
		sample[i] = phi[sr.Intn(len(phi))]
	}
	sort.Float64s(sample)

	var pool []*request
	if workload == "hot_repeat" {
		// The pool belongs to the fixture, like the dataset: -seed draws
		// the order the clients send it in. With Zipf(1.2) a handful of
		// entries carry most of the traffic, so a pool redrawn per seed
		// moved virt_s_per_op by 8 % and alloc_mb_per_op by 5 % between
		// seeds — the draw, not the code under test.
		g := &reqGen{r: rand.New(rand.NewSource(datasetSeed ^ 0x686f74)), stores: stores}
		for i := 0; i < hotPool; i++ {
			req, err := g.hotRequest(i)
			if err != nil {
				return nil, err
			}
			pool = append(pool, req)
		}
	}
	lists := make([][]*request, numClients)
	for c := range lists {
		g := &reqGen{r: rand.New(rand.NewSource(seed*1000003 + int64(c))), stores: stores, sorted: sample}
		zipf := rand.NewZipf(g.r, 1.2, 1, hotPool-1)
		lists[c] = make([]*request, n)
		for i := range lists[c] {
			var req *request
			var err error
			switch workload {
			case "region_index":
				req, err = g.regionIndex(i)
			case "value_subvol":
				req, err = g.valueSubvol(i)
			case "hot_repeat":
				req = pool[zipf.Uint64()]
			case "routed_mix":
				req, err = g.routedMix(i)
			default:
				err = fmt.Errorf("no request generator for workload %q", workload)
			}
			if err != nil {
				return nil, err
			}
			lists[c][i] = req
		}
	}
	return lists, nil
}

// forEachInBox calls fn with the row-major linear index of every point
// of the half-open box [from, to) in a grid of the given shape, in
// ascending order. A box that is empty or reaches outside the grid
// visits nothing.
func forEachInBox(shape []int, from, to []int, fn func(lin int64)) {
	dims := len(shape)
	strides := make([]int64, dims)
	strides[dims-1] = 1
	for d := dims - 2; d >= 0; d-- {
		strides[d] = strides[d+1] * int64(shape[d+1])
	}
	lo, hi := make([]int, dims), make([]int, dims)
	for d := range shape {
		l, h := from[d], to[d]
		if l < 0 || h > shape[d] || l >= h {
			return
		}
		lo[d], hi[d] = l, h
	}
	coords := append([]int(nil), lo...)
	for {
		var base int64
		for d := 0; d < dims-1; d++ {
			base += int64(coords[d]) * strides[d]
		}
		for x := lo[dims-1]; x < hi[dims-1]; x++ {
			fn(base + int64(x))
		}
		d := dims - 2
		for ; d >= 0; d-- {
			coords[d]++
			if coords[d] < hi[d] {
				break
			}
			coords[d] = lo[d]
		}
		if d < 0 {
			return
		}
	}
}
