// Command placeopt is the offline chip-designer: it compiles a
// loop-nest workload and searches the target mesh's memory-controller
// placement space for the layout that minimizes the workload's
// predicted makespan, co-optimizing the computation-to-core mapping
// per candidate (internal/placeopt — the same search behind locmapd's
// POST /v1/optimize, without the service or the simulation verify).
//
// Usage:
//
//	placeopt [flags] file.loc
//	placeopt [flags] -        # read source from stdin
//
// Flags:
//
//	-shared          target a shared (S-NUCA) LLC instead of private
//	-mesh WxH        mesh size (default 6x6)
//	-regions XxY     region grid (default 3x3)
//	-param N=V       set a symbolic parameter (repeatable)
//	-candidates N    placements scored through the estimate tier (default 400)
//	-topk K          survivors printed (default 3)
//	-seed S          search seed; fixed seed = identical output (default 0)
//	-sites POOL      candidate MC sites: "edge" (default) or "any"
//
// The output lists the default chip, the best placement found and the
// top-K survivors with their predicted cycle counts. For simulation
// verification of the survivors, use the service endpoint instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"locmap/internal/compiler"
	"locmap/internal/placeopt"
	"locmap/internal/server"
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
		fmt.Fprintln(os.Stderr, "placeopt:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	shared := flag.Bool("shared", false, "target a shared (S-NUCA) LLC")
	meshStr := flag.String("mesh", "6x6", "mesh size WxH")
	regStr := flag.String("regions", "3x3", "region grid XxY")
	candidates := flag.Int("candidates", placeopt.DefaultCandidates,
		"placements scored through the estimate tier")
	topK := flag.Int("topk", placeopt.DefaultTopK, "survivors printed")
	seed := flag.Int64("seed", 0, "search seed")
	sites := flag.String("sites", placeopt.SitesEdge, `candidate MC sites: "edge" or "any"`)
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
	// Demo inputs for the index arrays, as on the estimate path.
	res, err := compiler.CompileBound(string(src), compiler.Options{Cfg: cfg, Params: params})
	if err != nil {
		return err
	}

	r, err := placeopt.Search(placeopt.Config{
		Target:     cfg,
		Candidates: *candidates,
		TopK:       *topK,
		Seed:       *seed,
		Sites:      *sites,
	}, res)
	if err != nil {
		return err
	}

	var out strings.Builder
	fmt.Fprintf(&out, "workload: %s  target: %s mesh, %s regions, %s LLC\n",
		res.Program.Name, *meshStr, *regStr, llc)
	fmt.Fprintf(&out, "evaluated %d placements through the estimate tier\n\n", r.Evaluated)
	printScored(&out, "default", r.Default)
	printScored(&out, "best", r.Best)
	out.WriteString("\ntop survivors:\n")
	for i, sc := range r.Top {
		printScored(&out, fmt.Sprintf("  #%d", i+1), sc)
	}
	_, err = io.WriteString(w, out.String())
	return err
}

func printScored(w io.Writer, label string, sc placeopt.Scored) {
	fmt.Fprintf(w, "%-8s mcs=%v  predicted=%d cycles", label, sc.Placement.MCs, sc.PredictedCycles)
	if sc.ImprovementPct != 0 {
		fmt.Fprintf(w, "  (%+.1f%% vs default)", sc.ImprovementPct)
	}
	fmt.Fprintln(w)
}
