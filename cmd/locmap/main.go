// Command locmap is the compiler driver: it parses a loop-nest source
// file, runs the location-aware mapping pipeline against a described
// manycore target, and prints the annotated output code (the schedule
// tables and the inserted inspector code, where needed).
//
// Usage:
//
//	locmap [flags] file.loc
//	locmap [flags] -        # read source from stdin
//
// Flags:
//
//	-shared        target a shared (S-NUCA) LLC instead of private
//	-mesh WxH      mesh size (default 6x6)
//	-regions XxY   region grid (default 3x3)
//	-param N=V     set a symbolic parameter (repeatable)
//	-run           also execute the program on the simulator and report
//	               the improvement over the default mapping
//	-estimate      also print the analytical fast-tier plan (predicted
//	               hit fraction, affinity errors, per-leg NoC cost)
//	               without running the simulator
//
// On any parse, validation or mapping error locmap prints the error to
// stderr and exits non-zero without emitting a partial listing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"locmap/internal/compiler"
	"locmap/internal/core"
	"locmap/internal/estimate"
	"locmap/internal/inspector"
	"locmap/internal/server"
	"locmap/internal/sim"
	"locmap/internal/stats"
)

type paramList map[string]int64

func (p paramList) String() string { return fmt.Sprintf("%v", map[string]int64(p)) }

func (p paramList) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return err
	}
	p[name] = v
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "locmap:", err)
		os.Exit(1)
	}
}

// run compiles (and optionally simulates) the requested program and
// writes the full output to w only once everything has succeeded, so a
// late error can never leave a truncated listing behind.
func run(w io.Writer) error {
	shared := flag.Bool("shared", false, "target a shared (S-NUCA) LLC")
	meshStr := flag.String("mesh", "6x6", "mesh size WxH")
	regStr := flag.String("regions", "3x3", "region grid XxY")
	doRun := flag.Bool("run", false, "execute on the simulator and report improvement")
	doEst := flag.Bool("estimate", false, "print the analytical plan without simulating")
	params := paramList{}
	flag.Var(params, "param", "symbolic parameter NAME=VALUE (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		return fmt.Errorf("expected exactly one source file (or '-')")
	}
	var src []byte
	var err error
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		return err
	}

	// The target description goes through the same validation helpers
	// locmapd applies to request bodies.
	llc := "private"
	if *shared {
		llc = "shared"
	}
	cfg, err := server.BuildTarget(*meshStr, *regStr, llc)
	if err != nil {
		return err
	}

	// Estimating or simulating needs demo inputs bound to the index
	// arrays, as on locmapd's estimate and simulate paths; the listing
	// alone does not.
	compile := compiler.CompileSource
	if *doEst || *doRun {
		compile = compiler.CompileBound
	}
	res, err := compile(string(src), compiler.Options{Cfg: cfg, Params: params})
	if err != nil {
		return err
	}
	var out strings.Builder
	out.WriteString(res.Listing())

	if *doEst {
		printEstimate(&out, estimate.New(estimate.Config{Cfg: cfg}).FromResult(res))
	}

	if *doRun {
		p := res.Program
		// Both schedules on one machine, as locmapd's /v1/simulate.
		sched := res.Schedule
		if res.NeedsInspector {
			sched = nil // the inspector maps every nest at run time
		}
		mapper := core.NewMapper(core.Config{Mesh: cfg.Mesh})
		defCycles, laCycles, _ := inspector.Compare(sim.New(cfg), p, sched, mapper, inspector.DefaultOverhead())
		fmt.Fprintf(&out, "\n/* simulated: default=%d cycles, locmap=%d cycles, improvement=%.1f%% */\n",
			defCycles, laCycles, stats.PctReduction(float64(defCycles), float64(laCycles)))
	}
	_, err = io.WriteString(w, out.String())
	return err
}

// printEstimate renders the analytical plan as a trailing comment
// block, mirroring the -run summary's shape so the two are easy to
// diff by eye.
func printEstimate(out *strings.Builder, plan *estimate.Plan) {
	fmt.Fprintf(out, "\n/* estimate (analytical, tier %q):\n", estimate.TierEstimate)
	fmt.Fprintf(out, "   alpha=%.4f predicted=%d cycles baseline=%d cycles improvement=%.1f%%\n",
		plan.Alpha, plan.PredictedCycles, plan.BaselineCycles, plan.ImprovementPct)
	for _, ne := range plan.Nests {
		kind := "regular"
		if ne.Irregular {
			kind = "irregular"
		}
		fmt.Fprintf(out, "   nest %-12s %-9s sets=%-4d alpha=%.4f eta_m=%.4f",
			ne.Name, kind, ne.Sets, ne.Alpha, ne.EtaM)
		if ne.EtaC != 0 {
			fmt.Fprintf(out, " eta_c=%.4f", ne.EtaC)
		}
		fmt.Fprintf(out, " llc_refs=%.0f cycles=%d\n", ne.LLCRefs, ne.Cycles)
	}
	for _, leg := range plan.Legs {
		if leg.Packets == 0 {
			continue
		}
		fmt.Fprintf(out, "   leg %-12s packets=%.0f avg=%.1f total=%.0f cycles\n",
			leg.Leg, leg.Packets, leg.AvgCycles, leg.TotalCycles)
	}
	out.WriteString("*/\n")
}
