// In-situ staging scenario (paper contribution 4): a simulation emits
// time steps while staging workers run the MLOC pipeline concurrently,
// writing one store per (step, variable) to the PFS. Afterwards the
// analyst queries the staged history — here, tracking how the hot
// region of a 2-D field moves across time steps.
//
//	go run ./examples/insitu
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"mloc/internal/binning"
	"mloc/internal/core"
	"mloc/internal/datagen"
	"mloc/internal/pfs"
	"mloc/internal/query"
)

const (
	steps   = 6
	workers = 2
)

// staged is the outcome of staging one time step.
type staged struct {
	store *core.Store
	// ingest is the virtual time the build charged (PFS writes plus the
	// scaled, modelled CPU of binning, encoding and indexing).
	ingest float64
	err    error
}

func main() {
	fsCfg := pfs.DefaultConfig()
	fsCfg.ByteScale = 1000
	fsCfg.CPUScale = 1000
	sim := pfs.New(fsCfg)
	storeCfg := core.DefaultConfig([]int{32, 32})

	// The "simulation" emits each step as a fresh field (different seed,
	// so structures drift between steps); the staging workers build one
	// store per step while later steps are still being generated.
	fmt.Printf("simulating %d steps, staging in-situ with %d workers...\n", steps, workers)
	// The staging area holds one emitted step per worker: the simulation
	// runs at most that far ahead of staging before it blocks.
	emitted := make(chan int, workers)
	results := make([]staged, steps)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range emitted {
				results[s] = stageStep(sim, storeCfg, s)
			}
		}()
	}
	for s := 0; s < steps; s++ {
		emitted <- s
	}
	close(emitted)
	wg.Wait()

	var totalIngest float64
	for s, r := range results {
		if r.err != nil {
			log.Fatalf("step %d: %v", s, r.err)
		}
		totalIngest += r.ingest
	}
	fmt.Printf("staged %d stores, total ingest %.1f virtual sec (overlapped across workers)\n\n",
		len(results), totalIngest)

	// Temporal analysis: where is the field hottest in each step?
	fmt.Println("hot-region tracking across time steps (phi > 11.2):")
	vc := binning.ValueConstraint{Min: 11.2, Max: 1e18}
	for s, r := range results {
		sim.ResetStats()
		res, err := r.store.Query(&query.Request{VC: &vc, IndexOnly: true}, 4)
		if err != nil {
			log.Fatal(err)
		}
		// Centroid of the hot region.
		var cy, cx float64
		shape := r.store.Shape()
		coords := make([]int, 2)
		for _, m := range res.Matches {
			coords = shape.Coords(m.Index, coords[:0])
			cy += float64(coords[0])
			cx += float64(coords[1])
		}
		if len(res.Matches) == 0 {
			fmt.Printf("  step %d: no hot points\n", s)
			continue
		}
		n := float64(len(res.Matches))
		fmt.Printf("  step %d: %5d hot points, centroid (%.0f, %.0f), query %.3f virtual sec\n",
			s, len(res.Matches), cy/n, cx/n, res.Time.Total())
	}
}

// stageStep generates step s of the simulation and builds its store at
// run42/step<NNNNN>/phi on a clock of its own.
func stageStep(sim *pfs.Sim, cfg core.Config, s int) staged {
	ds := datagen.GTSLike(256, 256, int64(100+s))
	phi, err := ds.Var("phi")
	if err != nil {
		return staged{err: err}
	}
	clk := sim.NewClock()
	prefix := fmt.Sprintf("run42/step%05d/phi", s)
	st, err := core.BuildContext(context.Background(), sim, clk, prefix, ds.Shape, phi.Data, cfg)
	if err != nil {
		return staged{err: err}
	}
	return staged{store: st, ingest: clk.Now()}
}
