package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"mloc/internal/cache"
	"mloc/internal/cluster/fault"
	"mloc/internal/cluster/router"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
	"mloc/internal/server"
)

// Fixture settings. They mirror mlocd's defaults: 100 bins, chunk =
// side/16, V-M-S, hierarchical index, 4 ranks, 8 concurrent queries,
// 65536 matches per response.
const (
	numBins       = 100
	defaultRanks  = 4
	maxConcurrent = 8
	maxMatches    = 65536
	storePrefix   = "mlocd/"
	// datasetSeed generates both fields for every run. -seed draws the
	// request lists only: a field's smoothness decides how well it
	// compresses and indexes, and varies enough from seed to seed (stored
	// bytes 1.7x to 2.2x raw, build rate +-25 %) to drown every bound.
	datasetSeed = 1
)

// fieldSize is the side of the 2-D GTS-like and the 3-D S3D-like field.
type fieldSize struct{ gts, s3d int }

// fullSize is what the benchmark runs on: small enough that three full
// set-ups fit in one driver run, large enough that the decoded working
// set (8 MiB) dwarfs value_subvol's cache. The package test shrinks it.
var fullSize = fieldSize{gts: 512, s3d: 64}

// storeSpec is one variable of the fixture: its raw field (the oracle's
// ground truth) and the build configuration.
type storeSpec struct {
	name  string // served variable name, e.g. phi_col
	kind  string // col | iso | isa | s3d — the build_s.<kind> suffix
	shape grid.Shape
	data  []float64
	cfg   core.Config
	// relTol is the codec's per-point relative error bound at full
	// precision: 0 for the lossless stores.
	relTol float64
}

func (s *storeSpec) rawBytes() int64 { return 8 * int64(len(s.data)) }

// genSpecs generates the two synthetic datasets and returns the four
// store specs every workload uses.
func genSpecs(size fieldSize) []*storeSpec {
	gts := datagen.GTSLike(size.gts, size.gts, datasetSeed)
	s3d := datagen.S3DLike(size.s3d, datasetSeed)
	temp, err := s3d.Var("temp")
	if err != nil {
		panic(err) // S3DLike always carries temp
	}
	phi := gts.Vars[0].Data
	chunk2 := []int{size.gts / 16, size.gts / 16}
	chunk3 := []int{size.s3d / 4, size.s3d / 4, size.s3d / 4}
	specs := []*storeSpec{
		{name: "phi_col", kind: "col", shape: gts.Shape, data: phi, cfg: core.DefaultConfig(chunk2)},
		{name: "phi_iso", kind: "iso", shape: gts.Shape, data: phi, cfg: core.ISOConfig(chunk2)},
		{name: "phi_isa", kind: "isa", shape: gts.Shape, data: phi, cfg: core.ISAConfig(chunk2), relTol: 0.01},
		{name: "temp_col", kind: "s3d", shape: s3d.Shape, data: temp.Data, cfg: core.DefaultConfig(chunk3)},
	}
	for _, s := range specs {
		s.cfg.NumBins = numBins
		s.cfg.HierarchicalIndex = true
	}
	return specs
}

// buildStores builds every spec onto sim and returns the stores plus
// the wall seconds each build took, keyed by kind.
func buildStores(ctx context.Context, sim *pfs.Sim, specs []*storeSpec) (map[string]*core.Store, map[string]float64, error) {
	stores := make(map[string]*core.Store, len(specs))
	secs := make(map[string]float64, len(specs))
	for _, s := range specs {
		t0 := time.Now()
		st, err := core.BuildContext(ctx, sim, sim.NewClock(), storePrefix+s.name, s.shape, s.data, s.cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", s.name, err)
		}
		secs[s.kind] = time.Since(t0).Seconds()
		stores[s.name] = st
	}
	return stores, secs, nil
}

// cloneStores copies every file of src onto a fresh simulator and opens
// the stores there, so the clone has its own measurement mutex the way
// a separate mlocd process would. Each opened store must answer a probe
// query exactly as the original does, or the shortcut is rejected.
func cloneStores(ctx context.Context, src *pfs.Sim, orig map[string]*core.Store) (*pfs.Sim, map[string]*core.Store, float64, error) {
	dst := pfs.New(src.Config())
	clk := dst.NewClock()
	for _, path := range src.List("") {
		if err := ctx.Err(); err != nil {
			return nil, nil, 0, err
		}
		size, err := src.Size(path)
		if err != nil {
			return nil, nil, 0, err
		}
		data, err := src.Peek(path, 0, size)
		if err != nil {
			return nil, nil, 0, err
		}
		if err := dst.WriteFile(clk, path, append([]byte(nil), data...)); err != nil {
			return nil, nil, 0, err
		}
	}
	stores := make(map[string]*core.Store, len(orig))
	var openSecs float64
	for name, st := range orig {
		t0 := time.Now()
		opened, err := core.Open(dst, dst.NewClock(), st.Prefix())
		if err != nil {
			return nil, nil, 0, fmt.Errorf("opening clone of %s: %w", name, err)
		}
		openSecs += time.Since(t0).Seconds()
		if err := sameAnswer(ctx, st, opened); err != nil {
			return nil, nil, 0, fmt.Errorf("clone of %s: %w", name, err)
		}
		stores[name] = opened
	}
	return dst, stores, openSecs / float64(len(orig)), nil
}

// sameAnswer runs one value query over a corner box on both handles
// and requires identical matches (indices and value bits). I/O counters
// are not compared: the original may sit behind a warm decode cache.
func sameAnswer(ctx context.Context, a, b *core.Store) error {
	shape := a.Shape()
	lo, hi := make([]int, shape.Dims()), make([]int, shape.Dims())
	for d := range hi {
		hi[d] = shape[d] / 4
	}
	region, err := grid.NewRegion(lo, hi)
	if err != nil {
		return err
	}
	req := &query.Request{SC: &region}
	ra, err := a.QueryContext(ctx, req, defaultRanks)
	if err != nil {
		return err
	}
	rb, err := b.QueryContext(ctx, req, defaultRanks)
	if err != nil {
		return err
	}
	if len(ra.Matches) != len(rb.Matches) {
		return fmt.Errorf("probe query differs: %d matches vs %d", len(ra.Matches), len(rb.Matches))
	}
	for i := range ra.Matches {
		if ra.Matches[i].Index != rb.Matches[i].Index ||
			math.Float64bits(ra.Matches[i].Value) != math.Float64bits(rb.Matches[i].Value) {
			return fmt.Errorf("probe query differs at match %d", i)
		}
	}
	return nil
}

// storeDigest hashes every file under one store's prefix, path names
// included, in sorted order.
func storeDigest(sim *pfs.Sim, prefix string) (string, error) {
	h := sha256.New()
	for _, path := range sim.List(prefix + "/") {
		size, err := sim.Size(path)
		if err != nil {
			return "", err
		}
		data, err := sim.Peek(path, 0, size)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", path, size) //mlocvet:ignore uncheckederr -- hash.Hash.Write never returns an error
		h.Write(data)                         //mlocvet:ignore uncheckederr -- hash.Hash.Write never returns an error
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// listener is one HTTP server on a loopback port, with the harness's
// span middleware in front of the handler under test.
type listener struct {
	addr string // host:port actually bound
	url  string
	srv  *http.Server
	done chan error
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		addr: ln.Addr().String(),
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }() //mlocvet:ignore spmd-goroutine -- the serve loop of one in-process node; close joins it through done
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close() //mlocvet:ignore uncheckederr -- last resort after a failed graceful shutdown; the serve loop is joined next either way
	}
	<-l.done
}

// dataNode is one in-process mlocd -role data: stores on its own
// simulator, a decode cache, the query service behind the fault
// injector, and a real listener.
type dataNode struct {
	sim    *pfs.Sim
	stores map[string]*core.Store
	cache  *cache.Cache
	ln     *listener
}

func newDataNode(sim *pfs.Sim, stores map[string]*core.Store, cacheBytes int64, rec *spanRecorder) (*dataNode, error) {
	c, err := cache.New(cacheBytes)
	if err != nil {
		return nil, err
	}
	svc, err := server.New(server.Config{
		Stores:        stores,
		Cache:         c,
		MaxConcurrent: maxConcurrent,
		DefaultRanks:  defaultRanks,
		MaxMatches:    maxMatches,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	n := &dataNode{sim: sim, stores: stores, cache: c}
	n.ln, err = listen(rec.wrap("node.handler", fault.New().Wrap(svc.Handler())))
	if err != nil {
		return nil, err
	}
	return n, nil
}

// fixture is everything a workload runs against.
type fixture struct {
	specs     []*storeSpec
	byName    map[string]*storeSpec
	nodes     []*dataNode
	router    *listener // nil unless the workload is routed
	target    string    // URL the clients post to
	rec       *spanRecorder
	buildSecs map[string]float64
	// bytesWritten is what building the four stores wrote to the PFS.
	bytesWritten int64
	storedBytes  int64
	rawBytes     int64
	lists        [][]*request
	setupSecs    float64
}

// cacheBytesFor sizes the decode cache against the fixture's decoded
// working set (3 × 2 MiB of phi plus 2 MiB of temp): value_subvol gets
// an eighth of it, the others a cache that holds all of it.
func cacheBytesFor(workload string) int64 {
	if workload == "value_subvol" {
		return 1 << 20
	}
	return 64 << 20
}

// newFixture performs the whole set-up of a query workload: datagen,
// the four builds, node clones, listeners, router bootstrap and the
// request lists. Its duration is setup_s.
func newFixture(ctx context.Context, workload string, o options) (*fixture, error) {
	t0 := time.Now()
	fx := &fixture{rec: &spanRecorder{}, byName: map[string]*storeSpec{}}
	fx.specs = genSpecs(o.size)
	for _, s := range fx.specs {
		fx.byName[s.name] = s
		fx.rawBytes += s.rawBytes()
	}
	sim := pfs.New(pfs.DefaultConfig())
	stores, secs, err := buildStores(ctx, sim, fx.specs)
	if err != nil {
		return nil, err
	}
	fx.buildSecs = secs
	fx.bytesWritten = sim.Stats().BytesWritten
	for _, st := range stores {
		fx.storedBytes += st.TotalBytes()
	}
	n0, err := newDataNode(sim, stores, cacheBytesFor(workload), fx.rec)
	if err != nil {
		return nil, err
	}
	fx.nodes = []*dataNode{n0}
	fx.target = n0.ln.url
	if workload == "routed_mix" {
		if err := fx.addRouter(ctx, sim, stores, cacheBytesFor(workload)); err != nil {
			fx.close()
			return nil, err
		}
	}
	fx.lists, err = genRequests(workload, fx.byName, o.seed, o.scale)
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.setupSecs = time.Since(t0).Seconds()
	return fx, nil
}

// addRouter clones the stores onto a second data node and fronts both
// with a router configured like mlocd -role router -replication 1.
func (fx *fixture) addRouter(ctx context.Context, sim *pfs.Sim, stores map[string]*core.Store, cacheBytes int64) error {
	sim1, stores1, _, err := cloneStores(ctx, sim, stores)
	if err != nil {
		return err
	}
	n1, err := newDataNode(sim1, stores1, cacheBytes, fx.rec)
	if err != nil {
		return err
	}
	fx.nodes = append(fx.nodes, n1)
	// The shard map hashes node names, so the nodes get stable names
	// (as deployed nodes have) that the router's transport resolves to
	// this run's ephemeral ports; placement and fan-out are then the
	// same in every run.
	names := make([]string, len(fx.nodes))
	bound := map[string]string{}
	for i, n := range fx.nodes {
		names[i] = fmt.Sprintf("node%d.bench:80", i)
		bound[names[i]] = n.ln.addr
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	dialer := &net.Dialer{}
	transport.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if a, ok := bound[addr]; ok {
			addr = a
		}
		return dialer.DialContext(ctx, network, addr)
	}
	rt, err := router.New(router.Config{
		Nodes:       names,
		Client:      &http.Client{Transport: transport},
		Replication: 1,
		HedgeAfter:  250 * time.Millisecond,
		MaxMatches:  maxMatches,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	if err := rt.Bootstrap(ctx); err != nil {
		return err
	}
	fx.router, err = listen(fx.rec.wrap("router.handler", rt.Handler()))
	if err != nil {
		return err
	}
	fx.target = fx.router.url
	return nil
}

func (fx *fixture) close() {
	if fx.router != nil {
		fx.router.close()
	}
	for _, n := range fx.nodes {
		n.ln.close()
	}
}

// setupStats is the set-up summary the end-to-end metrics need; it
// outlives the fixtures it was taken from.
type setupStats struct {
	setupSecs  []float64
	buildMBps  []float64
	buildSecs  map[string][]float64
	storedRate float64
}

func (s *setupStats) add(fx *fixture) {
	s.setupSecs = append(s.setupSecs, fx.setupSecs)
	var total float64
	if s.buildSecs == nil {
		s.buildSecs = map[string][]float64{}
	}
	for kind, sec := range fx.buildSecs {
		total += sec
		s.buildSecs[kind] = append(s.buildSecs[kind], sec)
	}
	s.buildMBps = append(s.buildMBps, float64(fx.rawBytes)/1e6/total)
	s.storedRate = float64(fx.storedBytes) / float64(fx.rawBytes)
}

// setUp performs the set-up n times, closing all but the last fixture,
// so setup_s and build_mb_per_s are medians of n observations.
func setUp(ctx context.Context, workload string, o options, n int) (*fixture, *setupStats, error) {
	stats := &setupStats{}
	var fx *fixture
	for i := 0; i < n; i++ {
		if fx != nil {
			fx.close()
			fx = nil
			runtime.GC() // the closed fixture's datasets and stores are garbage now
		}
		var err error
		fx, err = newFixture(ctx, workload, o)
		if err != nil {
			return nil, nil, err
		}
		stats.add(fx)
	}
	return fx, stats, nil
}
