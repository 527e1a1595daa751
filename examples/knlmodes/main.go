// KNL modes: run one benchmark under the three Knights-Landing-style
// cluster modes (all-to-all, quadrant, SNC-4), with and without the
// location-aware mapping — the experiment behind the paper's Figure 16.
//
//	go run ./examples/knlmodes [benchmark]
package main

import (
	"fmt"
	"os"

	"locmap/internal/experiments"
	"locmap/internal/knl"
	"locmap/internal/stats"
	"locmap/internal/workloads"
)

func main() {
	app := "hpccg"
	if len(os.Args) > 1 {
		app = os.Args[1]
	}
	if _, ok := workloads.Lookup(app); !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", app)
		os.Exit(1)
	}

	// One Figure 16 job per cluster mode; each returns the mode's
	// original (default-schedule) and optimized cycles.
	modes := knl.Modes()
	jobs := make([]experiments.Job, len(modes))
	for i, mode := range modes {
		jobs[i] = experiments.Job{Kind: experiments.KindKNL, App: app, KNLMode: mode}
	}
	ms := experiments.NewRunner(0).Collect(jobs, nil)

	base := ms[0].DefCycles // original all-to-all
	fmt.Printf("%s on the KNL-like mesh (vs original all-to-all = %d cycles):\n", app, base)
	for i, mode := range modes {
		for _, opt := range []bool{false, true} {
			if mode == knl.AllToAll && !opt {
				continue
			}
			cy, tag := ms[i].DefCycles, "original "
			if opt {
				cy, tag = ms[i].LACycles, "optimized"
			}
			fmt.Printf("  %s %-10s %9d cycles  (%+.1f%%)\n",
				tag, mode, cy, stats.PctReduction(float64(base), float64(cy)))
		}
	}
}
