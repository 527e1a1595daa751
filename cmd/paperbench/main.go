// Command paperbench regenerates the paper's tables and figures on the
// simulator. Each experiment prints a text table with the same rows and
// series the paper reports; EXPERIMENTS.md records a reference run.
//
// Simulations run as fingerprinted jobs on a shared concurrent runner:
// -j bounds the worker pool, which counts jobs, not simulations (a job
// runs its ideal-NoC bound and its compile-time location-aware run
// beside its baseline), and any job requested by several figures (the
// default-variant runs shared by Figs. 2/7/8/13/14/15) simulates
// exactly once per invocation. Tables are byte-identical at any -j.
//
// Usage:
//
//	paperbench -fig 7                 # one figure
//	paperbench -fig 7,8,9             # several
//	paperbench -all                   # everything
//	paperbench -all -j 8              # ... on an 8-wide worker pool
//	paperbench -fig 7 -apps moldyn,swim   # restrict the benchmark set
//	paperbench -all -cpuprofile cpu.out -memprofile mem.out
//
// -cpuprofile/-memprofile write pprof profiles of the run (the memory
// profile captures the live heap at exit), so simulator performance work
// is measurable on the real full-sweep workload.
//
// Experiments: 2, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, table3, multi.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"locmap/internal/experiments"
	"locmap/internal/stats"
)

type figure struct {
	name string
	desc string
	run  func(experiments.Options) *stats.Table
}

var figures = []figure{
	{"2", "ideal-network potential", experiments.Fig2},
	{"table3", "benchmark properties", experiments.Table3},
	{"7", "private LLC main results", experiments.Fig7},
	{"8", "shared LLC main results", experiments.Fig8},
	{"9", "hardware sensitivity", experiments.Fig9},
	{"10", "region / set-size sensitivity", experiments.Fig10},
	{"11", "address distributions", experiments.Fig11},
	{"12", "DDR-4", experiments.Fig12},
	{"13", "vs data-layout optimization (DO)", experiments.Fig13},
	{"14", "vs hardware placement", experiments.Fig14},
	{"15", "perfect-estimation oracle", experiments.Fig15},
	{"16", "KNL cluster modes", experiments.Fig16},
	{"17", "KNL scaled inputs", experiments.Fig17},
	{"multi", "multiprogrammed mixes", experiments.MultiProg},
}

// selectFigures resolves the -fig/-all selection to the experiments to
// run, in canonical order. Every unknown id is reported together with
// the valid ids — before any simulation starts.
func selectFigures(figArg string, all bool) ([]figure, error) {
	if all {
		return figures, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(figArg, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	var sel []figure
	for _, f := range figures {
		if want[f.name] {
			sel = append(sel, f)
			delete(want, f.name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		valid := make([]string, len(figures))
		for i, f := range figures {
			valid[i] = f.name
		}
		return nil, fmt.Errorf("unknown experiment(s): %s (valid: %s)",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	return sel, nil
}

func main() {
	fig := flag.String("fig", "", "comma-separated experiment ids (see -h)")
	all := flag.Bool("all", false, "run every experiment")
	appsFlag := flag.String("apps", "", "comma-separated benchmark subset")
	scale := flag.Int("scale", 1, "workload input scale")
	jobs := flag.Int("j", runtime.NumCPU(), "max concurrently executing jobs")
	quiet := flag.Bool("q", false, "suppress per-job progress lines")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	if !*all && *fig == "" {
		fmt.Fprintln(os.Stderr, "paperbench: pass -fig ids or -all; known experiments:")
		for _, f := range figures {
			fmt.Fprintf(os.Stderr, "  %-7s %s\n", f.name, f.desc)
		}
		os.Exit(2)
	}
	sel, err := selectFigures(*fig, *all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}

	// Profiling starts only after flag validation so a usage error never
	// leaves a truncated profile behind.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live-heap numbers
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: -memprofile: %v\n", err)
			}
		}()
	}

	// One runner for the whole invocation: its memo table deduplicates
	// identical jobs across figures.
	runner := experiments.NewRunner(*jobs)
	o := experiments.Options{Scale: *scale, Jobs: *jobs, Runner: runner}
	if !*quiet {
		o.Log = os.Stderr
	}
	if *appsFlag != "" {
		o.Apps = strings.Split(*appsFlag, ",")
	}

	for _, f := range sel {
		start := time.Now()
		fmt.Fprintf(os.Stderr, "== experiment %s: %s\n", f.name, f.desc)
		tab := f.run(o)
		fmt.Println(tab.String())
		fmt.Fprintf(os.Stderr, "   (%s)\n", time.Since(start).Round(time.Millisecond))
	}
	c := runner.Counters()
	fmt.Fprintf(os.Stderr, "runner: %d jobs requested, %d simulated, %d served from memo (j=%d)\n",
		c.Requested, c.Executed, c.Memoized, runner.Parallelism())
}
