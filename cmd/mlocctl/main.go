// Command mlocctl is the MLOC command-line tool: it generates synthetic
// scientific datasets, ingests them through the MLOC multi-level layout
// pipeline onto the simulated parallel file system, and runs queries
// against the resulting store.
//
// Because the PFS is an in-process simulator, `run` performs
// build + query in one invocation; `gen` writes raw little-endian
// float64 files that `run` can ingest, so datasets can be produced once
// and queried many ways.
//
// Usage:
//
//	mlocctl gen   -dataset gts|s3d -side N -seed S -out data.f64
//	mlocctl run   -in data.f64 -shape 1024x1024 [flags]
//	mlocctl run   -dataset gts -side 512 [flags]      # generate inline
//	mlocctl query -remote HOST:PORT -var NAME [flags] # query a running mlocd
//	mlocctl stats -remote HOST:PORT                   # mlocd counters, one "key value" per line
//	mlocctl trace -remote HOST:PORT [-id N]           # retained query traces (span trees; routers show grafted per-node subtrees)
//	mlocctl querylog -remote HOST:PORT [-store M] [-var NAME] [-min-latency D]  # always-on query log, newest first
//	mlocctl cluster nodes -remote HOST:PORT           # router shard topology and node health
//	mlocctl cluster fault -remote HOST:PORT -mode kill|delay|corrupt|off [-delay 100ms]
//
// Run flags:
//
//	-chunk 64x64        chunk size (defaults to side/16 per dim)
//	-bins 100           number of equal-frequency bins
//	-mode col|iso|isa   MLOC variant (byte-column zlib, ISOBAR, ISABELA)
//	-order V-M-S        level priority order (V-M-S or V-S-M)
//	-vc lo:hi           value constraint (region query)
//	-sc a:b,c:d[,e:f]   spatial constraint, half-open per dimension
//	-plod L             PLoD level 1-7 (col mode only)
//	-index-only         return positions without values
//	-explain            print the query plan before executing
//	-ranks 8            parallel ranks
//
// Example:
//
//	mlocctl run -dataset gts -side 512 -vc 10.8:11.2 -index-only
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"mloc/internal/binning"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/grid"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "querylog":
		err = cmdQuerylog(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mlocctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mlocctl <gen|run|query|stats|trace|querylog|cluster> [flags]   (run `mlocctl <cmd> -h` for flags)")
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dataset := fs.String("dataset", "gts", "gts (2-D) or s3d (3-D)")
	side := fs.Int("side", 512, "grid side length")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output path for raw little-endian float64 data")
	varName := fs.String("var", "", "variable to export (default: dataset's first)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	ds, err := makeDataset(*dataset, *side, *seed)
	if err != nil {
		return err
	}
	name := *varName
	if name == "" {
		name = ds.Vars[0].Name
	}
	v, err := ds.Var(name)
	if err != nil {
		return err
	}
	buf := make([]byte, 8*len(v.Data))
	for i, x := range v.Data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s %s variable %q, shape %s, %d values (%.1f MB)\n",
		*out, *dataset, ds.Name, name, ds.Shape, len(v.Data), float64(len(buf))/1e6)
	return nil
}

func makeDataset(kind string, side int, seed int64) (*datagen.Dataset, error) {
	switch kind {
	case "gts":
		return datagen.GTSLike(side, side, seed), nil
	case "s3d":
		return datagen.S3DLike(side, seed), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (want gts or s3d)", kind)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	in := fs.String("in", "", "raw float64 input file (alternative to -dataset)")
	shapeStr := fs.String("shape", "", "grid shape, e.g. 1024x1024 (required with -in)")
	dataset := fs.String("dataset", "", "generate inline: gts or s3d")
	side := fs.Int("side", 512, "grid side for -dataset")
	seed := fs.Int64("seed", 1, "generator seed for -dataset")
	chunkStr := fs.String("chunk", "", "chunk size, e.g. 64x64 (default side/16)")
	bins := fs.Int("bins", 100, "equal-frequency bins")
	mode := fs.String("mode", "col", "col | iso | isa")
	orderStr := fs.String("order", "V-M-S", "level order: V-M-S or V-S-M")
	vcStr := fs.String("vc", "", "value constraint lo:hi")
	scStr := fs.String("sc", "", "spatial constraint a:b,c:d per dimension (half-open)")
	plod := fs.Int("plod", 0, "PLoD level 1-7 (0 = full precision)")
	indexOnly := fs.Bool("index-only", false, "return positions only")
	explain := fs.Bool("explain", false, "print the query plan before executing")
	ranks := fs.Int("ranks", 8, "parallel ranks")
	maxPrint := fs.Int("print", 5, "matches to print")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Load or generate data.
	var data []float64
	var shape grid.Shape
	switch {
	case *in != "":
		if *shapeStr == "" {
			return fmt.Errorf("run: -shape is required with -in")
		}
		var err error
		shape, err = grid.ParseShape(*shapeStr)
		if err != nil {
			return err
		}
		data, err = datagen.ReadRaw(*in, shape)
		if err != nil {
			return err
		}
	case *dataset != "":
		ds, err := makeDataset(*dataset, *side, *seed)
		if err != nil {
			return err
		}
		shape = ds.Shape
		data = ds.Vars[0].Data
	default:
		return fmt.Errorf("run: need -in or -dataset")
	}

	// Configuration.
	chunk := core.DefaultChunk(shape)
	if *chunkStr != "" {
		cs, err := grid.ParseShape(*chunkStr)
		if err != nil {
			return err
		}
		chunk = cs
	}
	cfg, err := core.ModeConfig(*mode, chunk)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	cfg.NumBins = *bins
	cfg.HierarchicalIndex = true
	order, err := core.ParseOrder(*orderStr)
	if err != nil {
		return err
	}
	cfg.Order = order

	// Build.
	sim := pfs.New(pfs.DefaultConfig())
	clk := sim.NewClock()
	st, err := core.Build(sim, clk, "mloc/var", shape, data, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("built MLOC-%s store: shape %s, chunk %v, %d bins, order %s\n",
		strings.ToUpper(*mode), shape, chunk, st.NumBins(), st.Order())
	fmt.Printf("  raw %.2f MB -> data %.2f MB + index %.2f MB (total/raw %.2f), ingest %.2f virtual sec\n",
		float64(8*shape.Elems())/1e6, float64(st.DataBytes())/1e6, float64(st.IndexBytes())/1e6,
		float64(st.TotalBytes())/float64(8*shape.Elems()), clk.Now())

	// Query.
	req := &query.Request{PLoDLevel: *plod, IndexOnly: *indexOnly}
	if *vcStr != "" {
		vc, err := parseVC(*vcStr)
		if err != nil {
			return err
		}
		req.VC = &vc
	}
	if *scStr != "" {
		sc, err := parseSC(*scStr, shape.Dims())
		if err != nil {
			return err
		}
		req.SC = &sc
	}
	if req.VC == nil && req.SC == nil {
		fmt.Println("no -vc or -sc given; store built, skipping query")
		return nil
	}
	var plan *core.Plan
	if *explain {
		plan, err = st.Explain(req)
		if err != nil {
			return err
		}
		if err := plan.Render(os.Stdout); err != nil {
			return err
		}
	}
	sim.ResetStats()
	res, err := st.Query(req, *ranks)
	if err != nil {
		return err
	}
	if plan != nil {
		// -explain prints predicted cost above; append the measured
		// breakdown of the execution that just happened.
		plan.Observe(res)
		fmt.Print(plan.Measured.String())
	}
	fmt.Printf("query: %d matches, %d bins touched, %d blocks read, %.2f MB read\n",
		len(res.Matches), res.BinsAccessed, res.BlocksRead, float64(res.BytesRead)/1e6)
	fmt.Printf("  time: io %.4fs, decompress %.4fs, reconstruct %.4fs, total %.4fs (virtual)\n",
		res.Time.IO, res.Time.Decompress, res.Time.Reconstruct, res.Time.Total())
	for i, m := range res.Matches {
		if i >= *maxPrint {
			fmt.Printf("  ... and %d more\n", len(res.Matches)-*maxPrint)
			break
		}
		coords := shape.Coords(m.Index, nil)
		if *indexOnly {
			fmt.Printf("  match at %v\n", coords)
		} else {
			fmt.Printf("  match at %v = %g\n", coords, m.Value)
		}
	}
	return nil
}

func parseVC(s string) (binning.ValueConstraint, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return binning.ValueConstraint{}, fmt.Errorf("bad -vc %q (want lo:hi)", s)
	}
	min, err := strconv.ParseFloat(lo, 64)
	if err != nil {
		return binning.ValueConstraint{}, err
	}
	max, err := strconv.ParseFloat(hi, 64)
	if err != nil {
		return binning.ValueConstraint{}, err
	}
	if min > max {
		return binning.ValueConstraint{}, fmt.Errorf("bad -vc %q: min > max", s)
	}
	return binning.ValueConstraint{Min: min, Max: max}, nil
}

func parseSC(s string, dims int) (grid.Region, error) {
	parts := strings.Split(s, ",")
	if len(parts) != dims {
		return grid.Region{}, fmt.Errorf("-sc has %d dimensions, grid has %d", len(parts), dims)
	}
	lo := make([]int, dims)
	hi := make([]int, dims)
	for d, p := range parts {
		a, b, ok := strings.Cut(p, ":")
		if !ok {
			return grid.Region{}, fmt.Errorf("bad -sc component %q (want a:b)", p)
		}
		var err error
		lo[d], err = strconv.Atoi(a)
		if err != nil {
			return grid.Region{}, err
		}
		hi[d], err = strconv.Atoi(b)
		if err != nil {
			return grid.Region{}, err
		}
	}
	return grid.NewRegion(lo, hi)
}
