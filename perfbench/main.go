// Command perfbench is the repository benchmark. It runs one of three
// workloads the way users run the code, checks every output, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics) as
// the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// Workloads:
//
//	serve-plan  POST /v1/map against a locmapd process, zipf over a
//	            generated program family (cache hits and compiles)
//	serve-sim   POST /v1/estimate and /v1/simulate on shared sources,
//	            beside a client running /v1/optimize jobs
//	sweep       the 14 paper experiments on the golden app subsets
//
// run.sh builds locmapd and this command from the checkout and passes
// the paths; see README.md for the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEnv carries one invocation's settings to a workload.
type runEnv struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	locmapd  string // locmapd binary
	root     string // repository checkout
	work     string // scratch directory for this run
	self     string // this binary, for the sweep child
}

// outcome is what a workload hands back: its operation counts, the
// failures it found, and every metric it measured, keyed by name.
type outcome struct {
	attempted int
	failures  []string // one line per failed operation or check
	failed    int
	metrics   map[string]metric
	notes     []string // human-readable context printed before the result
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// fail records one failed operation; the first few are kept verbatim.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// absorb adds another outcome's operation and failure counts.
func (o *outcome) absorb(p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	for _, f := range p.failures {
		if len(o.failures) < 20 {
			o.failures = append(o.failures, f)
		}
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == sweepChildArg {
		os.Exit(sweepChild(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "serve-plan, serve-sim or sweep")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	locmapd := flag.String("locmapd", "", "locmapd binary")
	root := flag.String("root", ".", "repository checkout")
	flag.Parse()
	if flag.NArg() != 0 || *locmapd == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload W -seed N -seconds S -trace 0|1 -locmapd BIN [-root DIR]")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	bin, err := filepath.Abs(*locmapd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work := filepath.Join(absRoot, ".bench_build", "run", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	env := &runEnv{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		locmapd:  bin,
		root:     absRoot,
		work:     work,
		self:     self,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var o *outcome
	switch env.workload {
	case "serve-plan":
		o, err = runServePlan(ctx, env)
	case "serve-sim":
		o, err = runServeSim(ctx, env)
	case "sweep":
		o, err = runSweep(ctx, env)
	default:
		err = fmt.Errorf("unknown workload %q", env.workload)
	}
	if err != nil {
		// A run that could not measure prints no result line.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return finish(env, o)
}

// finish prints the environment, every measured metric by name and
// unit, the failures, and the result line.
func finish(env *runEnv, o *outcome) int {
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v\n",
		env.workload, env.seed, int(env.seconds/time.Second), env.trace)
	fmt.Printf("# host nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitID(env.root))
	for _, n := range o.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Printf("%-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, f := range o.failures {
		fmt.Println("# FAILED:", f)
	}
	endToEnd, perLayer, err := declared(env.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if env.trace {
		want = perLayer
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	var missing, idle []string
	for _, d := range want {
		m, ok := o.metrics[d.Name]
		if !ok && env.trace {
			// A layer this workload never calls did no work: it
			// reads zero, and is listed as such.
			idle = append(idle, d.Name)
			m = metric{0, d.Unit}
			ok = true
		}
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s measured in %s, declared in %s\n", d.Name, m.Unit, d.Unit)
			return 1
		}
		res.Metrics[d.Name] = m
	}
	if len(idle) > 0 {
		fmt.Printf("# not measured on %s (reported as 0; see perfbench/README.md for the workload that measures each): %s\n", env.workload, strings.Join(idle, " "))
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", env.workload, strings.Join(missing, ", "))
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operations attempted")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
