// Command mlocd is the MLOC query-service daemon. It runs in one of
// two roles:
//
//   - -role data (the default): build (or ingest) variable stores on
//     the simulated PFS, then serve concurrent query traffic over
//     HTTP/JSON with admission control, cooperative cancellation, and
//     a shared decoded-unit cache.
//   - -role router: front a cluster of data nodes. The router learns
//     the variable set from its nodes at startup, shards each variable
//     into storage-order row slabs placed by consistent hash, and
//     answers the same /query API by scatter-gathering sub-queries,
//     with hedged retries, failover, and degraded partial results.
//
// Usage:
//
//	mlocd -addr 127.0.0.1:8080 -store phi=gts:512 -store chi=s3d:64:2
//	mlocd -store t=file:temps.f64:1024x1024 -cache-mb 128
//	mlocd -role router -node 127.0.0.1:8081 -node 127.0.0.1:8082 -replication 2
//
// Store specs take the form name=source, where source is one of
//
//	gts:SIDE[:SEED]        synthetic 2-D GTS-like field
//	s3d:SIDE[:SEED]        synthetic 3-D S3D-like field
//	file:PATH:SHAPE        raw little-endian float64 file (mlocctl gen)
//
// Endpoints (both roles serve the same query surface):
//
//	POST /query         {"var":..., "vc":{"min":..,"max":..}, "sc":{"lo":[..],"hi":[..]}, "plod":N, "ranks":N, "index_only":bool}
//	GET  /stats         flat JSON counters (admission, outcomes, cache | routing)
//	GET  /vars          served variables with shapes
//	GET  /healthz       readiness (503 while draining)
//	GET  /metrics       Prometheus text exposition (SLO counters, exemplar trace ids)
//	GET  /debug/traces  retained span trees, newest first (?id=N for one)
//	GET  /debug/querylog  always-on per-query log, newest first (?store= ?var= ?min_latency=)
//	GET  /debug/pprof/  Go runtime profiles (only with -pprof)
//	GET|POST /cluster/fault   data nodes: fault-injection admin (mlocctl cluster fault)
//	GET  /cluster/nodes       router: shard topology and per-node health
//
// Every query (and each startup store build) runs under a trace whose
// span tree decomposes its virtual latency into fetch, decode,
// reassemble, and filter work; /query responses carry the trace_id,
// and /debug/querylog?min_latency= finds the slow ones by it.
//
// On SIGINT/SIGTERM the daemon stops admitting queries (503 +
// Retry-After), drains in-flight ones up to -drain-timeout, then exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mloc/internal/cache"
	"mloc/internal/cluster/fault"
	"mloc/internal/cluster/health"
	"mloc/internal/cluster/router"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/obs"
	"mloc/internal/pfs"
	"mloc/internal/server"
)

// stringList collects repeatable string flags (-store, -node).
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "mlocd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mlocd", flag.ExitOnError)
	role := fs.String("role", "data", "process role: data (serve stores) | router (front a cluster of data nodes)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	var specs stringList
	fs.Var(&specs, "store", "variable store spec name=gts:SIDE[:SEED] | name=s3d:SIDE[:SEED] | name=file:PATH:SHAPE (repeatable; data role)")
	chunkStr := fs.String("chunk", "", "chunk size, e.g. 64x64 (default side/16 per dim)")
	bins := fs.Int("bins", 100, "equal-frequency bins per store")
	mode := fs.String("mode", "col", "MLOC variant: col | iso | isa")
	orderStr := fs.String("order", "V-M-S", "level order: V-M-S or V-S-M")
	ranks := fs.Int("ranks", 4, "default parallel ranks per query")
	maxConcurrent := fs.Int("max-concurrent", 8, "max simultaneously executing queries")
	maxQueue := fs.Int("max-queue", 0, "max queued queries (default 2x max-concurrent)")
	queueWait := fs.Duration("queue-wait", 2*time.Second, "longest a query waits for a slot")
	cacheMB := fs.Int("cache-mb", 64, "shared decode cache size in MiB (0 disables)")
	maxMatches := fs.Int("max-matches", 65536, "matches returned per response")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight queries")
	pprofOn := fs.Bool("pprof", false, "serve Go runtime profiles under /debug/pprof/")
	sloStr := fs.String("slo", obs.DefaultSLOObjectives, "comma-separated latency objectives behind the mloc_slo_query_* counters, e.g. 100ms,1s")
	var nodes stringList
	fs.Var(&nodes, "node", "data-node address host:port (repeatable; router role)")
	replication := fs.Int("replication", 2, "data nodes owning each shard (router role)")
	slabsPerVar := fs.Int("slabs-per-var", 0, "row slabs per variable (router role; default 4x nodes)")
	shardSeed := fs.Uint64("shard-seed", 1, "shard-map placement seed (router role)")
	shardTimeout := fs.Duration("shard-timeout", 10*time.Second, "per-shard sub-query budget including retries (router role)")
	hedgeAfter := fs.Duration("hedge-after", 250*time.Millisecond, "launch a replica hedge when a shard is this slow; 0 disables (router role)")
	healthInterval := fs.Duration("health-interval", time.Second, "data-node health probe interval (router role)")
	noPropagation := fs.Bool("no-trace-propagation", false, "do not graft data-node span subtrees into router traces (router role)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sloObjectives, err := obs.ParseSLOObjectives(*sloStr)
	if err != nil {
		return fmt.Errorf("bad -slo: %w", err)
	}
	switch *role {
	case "router":
		if len(specs) > 0 {
			return fmt.Errorf("-store is only valid with -role data; a router builds nothing")
		}
		return runRouter(routerOpts{
			addr:           *addr,
			nodes:          nodes,
			replication:    *replication,
			slabsPerVar:    *slabsPerVar,
			seed:           *shardSeed,
			shardTimeout:   *shardTimeout,
			hedgeAfter:     *hedgeAfter,
			healthInterval: *healthInterval,
			maxMatches:     *maxMatches,
			drainTimeout:   *drainTimeout,
			sloObjectives:  sloObjectives,
			noPropagation:  *noPropagation,
			pprofOn:        *pprofOn,
		})
	case "data":
		// fall through below
	default:
		return fmt.Errorf("unknown -role %q (want data or router)", *role)
	}
	if len(specs) == 0 {
		return fmt.Errorf("at least one -store spec is required")
	}

	cfgTemplate, err := storeConfig(*mode, *chunkStr, *bins, *orderStr)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceCapacity)
	sim := pfs.New(pfs.DefaultConfig())
	sim.Instrument(reg)
	stores, err := buildStores(sim, specs, cfgTemplate, tracer)
	if err != nil {
		return err
	}
	for name, st := range stores {
		fmt.Printf("mlocd: built store %q: shape %s, %d bins, %.2f MB on PFS\n",
			name, st.Shape(), st.NumBins(), float64(st.TotalBytes())/1e6)
	}

	var c *cache.Cache
	if *cacheMB > 0 {
		c, err = cache.New(int64(*cacheMB) << 20)
		if err != nil {
			return err
		}
	}
	svc, err := server.New(server.Config{
		Stores:        stores,
		Cache:         c,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		QueueWait:     *queueWait,
		DefaultRanks:  *ranks,
		MaxMatches:    *maxMatches,
		Registry:      reg,
		Tracer:        tracer,
		SLOObjectives: sloObjectives,
	})
	if err != nil {
		return err
	}

	// The service rides behind a fault injector so tests and operators
	// can make this node misbehave on demand; the injector's admin
	// endpoint sits OUTSIDE the wrap so a killed node stays revivable.
	inj := fault.New()
	handler := composeDataHandler(svc.Handler(), inj, *pprofOn)
	return serveAndDrain(*addr, handler, svc.SetDraining, *drainTimeout, nil)
}

// composeDataHandler mounts the data-node handler stack: the query
// service wrapped by the fault injector, the injector admin, and
// (optionally) pprof — admin and profiles are exempt from injection.
func composeDataHandler(svc http.Handler, inj *fault.Injector, pprofOn bool) http.Handler {
	outer := http.NewServeMux()
	outer.Handle("/", inj.Wrap(svc))
	outer.Handle("/cluster/fault", inj.AdminHandler())
	if pprofOn {
		mountPprof(outer)
	}
	return outer
}

// mountPprof serves the Go runtime profiles under /debug/pprof/.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Println("mlocd: pprof enabled at /debug/pprof/")
}

// routerOpts carries the router-role CLI surface into runRouter.
type routerOpts struct {
	addr           string
	nodes          []string
	replication    int
	slabsPerVar    int
	seed           uint64
	shardTimeout   time.Duration
	hedgeAfter     time.Duration
	healthInterval time.Duration
	maxMatches     int
	drainTimeout   time.Duration
	sloObjectives  []time.Duration
	noPropagation  bool
	pprofOn        bool
}

// runRouter starts the metadata/routing plane: a health checker over
// the data nodes, the shard map bootstrap, and the scatter-gather
// query front end.
func runRouter(o routerOpts) error {
	if len(o.nodes) == 0 {
		return fmt.Errorf("router role requires at least one -node")
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.DefaultTraceCapacity)
	// Node calls and health probes share one connection pool.
	nodeClient := router.NewNodeClient(len(o.nodes))
	hc, err := health.New(health.Config{Nodes: o.nodes, Interval: o.healthInterval, Client: nodeClient})
	if err != nil {
		return err
	}
	hc.Instrument(reg)
	hctx, hcancel := context.WithCancel(context.Background())
	hc.Start(hctx)
	stopHealth := func() {
		hcancel()
		hc.Wait()
	}
	rt, err := router.New(router.Config{
		Nodes:        o.nodes,
		Replication:  o.replication,
		SlabsPerVar:  o.slabsPerVar,
		Seed:         o.seed,
		ShardTimeout: o.shardTimeout,
		HedgeAfter:   o.hedgeAfter,
		MaxMatches:   o.maxMatches,
		Client:       nodeClient,
		Health:       hc,
		Registry:     reg,
		Tracer:       tracer,

		SLOObjectives:           o.sloObjectives,
		DisableTracePropagation: o.noPropagation,
	})
	if err != nil {
		stopHealth()
		return err
	}
	if err := rt.Bootstrap(context.Background()); err != nil {
		stopHealth()
		return err
	}
	var handler http.Handler = rt.Handler()
	if o.pprofOn {
		outer := http.NewServeMux()
		outer.Handle("/", handler)
		mountPprof(outer)
		handler = outer
	}
	fmt.Printf("mlocd: routing %d vars across %d data nodes\n", len(rt.Vars()), len(o.nodes))
	return serveAndDrain(o.addr, handler, rt.SetDraining, o.drainTimeout, stopHealth)
}

// serveAndDrain is the shared daemon lifecycle: listen, serve, and on
// SIGINT/SIGTERM stop admitting work, drain in-flight requests within
// the budget, then run afterDrain (health-checker teardown, etc).
func serveAndDrain(addr string, handler http.Handler, setDraining func(bool), drainTimeout time.Duration, afterDrain func()) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	fmt.Printf("mlocd: listening on %s\n", ln.Addr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	// The server loop must not block signal handling; this is daemon
	// plumbing, not data parallelism.
	go func() { errc <- httpSrv.Serve(ln) }() // the serve loop; its exit is joined via errc

	select {
	case sig := <-sigc:
		fmt.Printf("mlocd: %v received, draining (budget %s)\n", sig, drainTimeout)
		setDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if afterDrain != nil {
			afterDrain()
		}
		fmt.Println("mlocd: drained, bye")
		return nil
	case err := <-errc:
		return err
	}
}

// storeConfig assembles the shared core.Config template from CLI flags.
// An empty chunkStr leaves ChunkSize nil: buildStores resolves it per
// store from the store's shape.
func storeConfig(mode, chunkStr string, bins int, orderStr string) (core.Config, error) {
	var chunk []int
	if chunkStr != "" {
		c, err := grid.ParseShape(chunkStr)
		if err != nil {
			return core.Config{}, err
		}
		chunk = c
	}
	cfg, err := core.ModeConfig(mode, chunk)
	if err != nil {
		return cfg, err
	}
	cfg.NumBins = bins
	cfg.HierarchicalIndex = true
	order, err := core.ParseOrder(orderStr)
	if err != nil {
		return cfg, err
	}
	cfg.Order = order
	return cfg, nil
}

// buildStores materializes every -store spec onto the PFS. Each build
// runs under its own retained trace, so /debug/traces explains startup
// cost span by span.
func buildStores(sim *pfs.Sim, specs []string, template core.Config, tracer *obs.Tracer) (map[string]*core.Store, error) {
	stores := make(map[string]*core.Store, len(specs))
	for _, spec := range specs {
		name, data, shape, err := loadSpec(spec)
		if err != nil {
			return nil, err
		}
		if _, dup := stores[name]; dup {
			return nil, fmt.Errorf("duplicate store name %q", name)
		}
		cfg := template
		if cfg.ChunkSize == nil {
			cfg.ChunkSize = core.DefaultChunk(shape)
		}
		ctx, root := tracer.StartTrace(context.Background(), "build")
		root.SetString("store", name)
		st, err := core.BuildContext(ctx, sim, sim.NewClock(), "mlocd/"+name, shape, data, cfg)
		root.End()
		if err != nil {
			return nil, fmt.Errorf("building %q: %w", name, err)
		}
		stores[name] = st
	}
	return stores, nil
}

// loadSpec parses one name=source spec and loads its data.
func loadSpec(spec string) (name string, data []float64, shape grid.Shape, err error) {
	name, source, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", nil, nil, fmt.Errorf("bad -store %q (want name=source)", spec)
	}
	kind, rest, _ := strings.Cut(source, ":")
	switch kind {
	case "gts", "s3d":
		side, seed, perr := parseSideSeed(rest)
		if perr != nil {
			return "", nil, nil, fmt.Errorf("bad -store %q: %w", spec, perr)
		}
		var ds *datagen.Dataset
		if kind == "gts" {
			ds = datagen.GTSLike(side, side, seed)
		} else {
			ds = datagen.S3DLike(side, seed)
		}
		return name, ds.Vars[0].Data, ds.Shape, nil
	case "file":
		path, shapeStr, ok := strings.Cut(rest, ":")
		if !ok {
			return "", nil, nil, fmt.Errorf("bad -store %q (want name=file:PATH:SHAPE)", spec)
		}
		shape, err = grid.ParseShape(shapeStr)
		if err != nil {
			return "", nil, nil, fmt.Errorf("bad -store %q: %w", spec, err)
		}
		data, err = datagen.ReadRaw(path, shape)
		if err != nil {
			return "", nil, nil, err
		}
		return name, data, shape, nil
	default:
		return "", nil, nil, fmt.Errorf("bad -store %q: unknown source %q (want gts, s3d, or file)", spec, kind)
	}
}

// parseSideSeed parses "SIDE" or "SIDE:SEED".
func parseSideSeed(s string) (side int, seed int64, err error) {
	sideStr, seedStr, hasSeed := strings.Cut(s, ":")
	side, err = strconv.Atoi(sideStr)
	if err != nil || side < 1 {
		return 0, 0, fmt.Errorf("bad side %q", sideStr)
	}
	seed = 1
	if hasSeed {
		seed, err = strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad seed %q", seedStr)
		}
	}
	return side, seed, nil
}
