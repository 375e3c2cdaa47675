// Command benchtables regenerates the MLOC paper's tables and figures
// on the simulated substrate (see DESIGN.md §4 for the experiment
// index). With no flags it runs everything; -table/-figure/-ablation/
// -extension select one experiment from experiments.Experiments.
//
// Usage:
//
//	benchtables [-table N] [-figure N] [-ablation name] [-queries Q] [-ranks R] [-seed S]
//
// Examples:
//
//	benchtables                    # all tables, figures, ablations
//	benchtables -table 2           # Table II only
//	benchtables -figure 7          # Figure 7 only
//	benchtables -ablation curve    # the curve ablation only
//	benchtables -queries 20        # tighter averages (slower)
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"mloc/internal/experiments"
)

func main() {
	d := experiments.DefaultParams()
	table := flag.Int("table", 0, "run only this table (1-7; 6=accuracy, 7=order)")
	figure := flag.Int("figure", 0, "run only this figure (6-8)")
	ablation := flag.String("ablation", "", "run only this ablation (binning|curve|assignment|plodfill|fileorg)")
	extension := flag.String("extension", "", "run only this extension experiment (multires)")
	queries := flag.Int("queries", d.Queries, "random queries averaged per cell")
	ranks := flag.Int("ranks", d.Ranks, "parallel ranks per query")
	seed := flag.Int64("seed", d.Seed, "workload seed")
	flag.Parse()
	p := experiments.Params{Queries: *queries, Ranks: *ranks, Seed: *seed}

	// With no selector every experiment runs; otherwise the first set
	// selector picks one, and missing is its error when none matches.
	kind, id, missing := "", "", ""
	switch {
	case *table != 0:
		kind, id, missing = "table", strconv.Itoa(*table), fmt.Sprintf("no table %d", *table)
	case *figure != 0:
		kind, id, missing = "figure", strconv.Itoa(*figure), fmt.Sprintf("no figure %d", *figure)
	case *extension != "":
		kind, id, missing = "extension", *extension, fmt.Sprintf("no extension %q", *extension)
	case *ablation != "":
		kind, id, missing = "ablation", *ablation, fmt.Sprintf("no ablation %q", *ablation)
	}
	ran := false
	for _, e := range experiments.Experiments {
		if kind != "" && (e.Kind != kind || e.ID != id) {
			continue
		}
		ran = true
		start := time.Now()
		res, err := e.Run(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		if err := res.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: rendering %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("  (%s regenerated in %.1fs wall)\n\n", e.Name, time.Since(start).Seconds())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchtables: %s\n", missing)
		os.Exit(2)
	}
}
