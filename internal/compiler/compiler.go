// Package compiler is the driver that glues the front end, the analyses
// and the mapping algorithm into the paper's Figure 4 pipeline:
//
//	source → IR → dependence check → data-access analysis →
//	cache-miss estimation → MAI/CAI (+ MAC/CAC from the architecture
//	description) → iteration-set-to-region assignment → load balancing →
//	iteration-set-to-core schedule → annotated output code.
//
// Regular nests are fully planned at compile time. Irregular nests cannot
// be (their index arrays are runtime inputs), so the driver marks them
// for the inspector–executor runtime (internal/inspector) and the emitted
// listing shows the inserted inspector code.
package compiler

import (
	"fmt"
	"strings"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/cme"
	"locmap/internal/core"
	"locmap/internal/lang"
	"locmap/internal/loop"
	"locmap/internal/sim"
)

// Options configure a compilation.
type Options struct {
	// Cfg is the exposed architecture description (Figure 4's input):
	// mesh geometry, cache organization and the address map.
	Cfg sim.Config

	// Mapper overrides the mapping configuration (mesh defaults to
	// Cfg.Mesh).
	Mapper core.Config

	// CMEAccuracy sets the cache-miss-estimator accuracy (0 → the
	// per-application default in the 76–93% band; 1 → oracle).
	CMEAccuracy float64

	// Params supplies values for symbolic loop bounds.
	Params map[string]int64
}

// NestPlan is the compile-time plan for one nest.
type NestPlan struct {
	Nest *loop.Nest
	Sets []loop.IterSet

	// ParallelSafe is the dependence-test verdict. Nests declared
	// `parallel` that fail the test are still honored (the programmer
	// asserted independence), but the listing flags them.
	ParallelSafe bool

	// Static planning (regular nests only):
	Affinities []affinity.SetAffinity
	Assignment *core.Assignment

	// NeedsInspector marks irregular nests whose mapping is deferred
	// to the inspector–executor runtime.
	NeedsInspector bool
}

// Result is a finished compilation.
type Result struct {
	Program *loop.Program
	Plans   []NestPlan

	// Schedule holds the static assignments (nil entries for
	// inspector-planned nests).
	Schedule *sim.Schedule

	// NeedsInspector is true when any nest defers to the runtime.
	NeedsInspector bool
}

// CompileSource parses and compiles a program written in the lang input
// language.
func CompileSource(src string, opts Options) (*Result, error) {
	p, err := lang.Parse(src, opts.Params)
	if err != nil {
		return nil, err
	}
	return CompileProgram(p, opts)
}

// CompileBound is CompileSource for callers that go on to estimate or
// simulate the program: it binds deterministic demo inputs to every
// unbound index array (lang.GenerateIndexData, seed 1, runs of 64) and
// validates the bound program. A static listing needs neither, and
// binding allocates an index array per irregular reference, so the
// plan-only path stays on CompileSource.
func CompileBound(src string, opts Options) (*Result, error) {
	res, err := CompileSource(src, opts)
	if err != nil {
		return nil, err
	}
	lang.GenerateIndexData(res.Program, 1, 64)
	if err := res.Program.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// CompileProgram runs the pipeline over an already-built IR program. The
// program's arrays are laid out (page-aligned) if they are not already.
//
// CompileProgram (and CompileSource) is safe to call concurrently —
// every call builds its own architecture description, estimator and
// mapper, and no package-global state is touched. The one caveat is
// the program itself: the layout pass mutates array base addresses, so
// callers must not share a single *loop.Program across concurrent
// compilations (CompileSource callers get a fresh program per call).
func CompileProgram(p *loop.Program, opts Options) (*Result, error) {
	if opts.Cfg.Mesh == nil {
		opts.Cfg = sim.DefaultConfig()
	}
	cfg := opts.Cfg
	if opts.Mapper.Mesh == nil {
		opts.Mapper.Mesh = cfg.Mesh
	}
	laidOut := false
	for _, a := range p.Arrays {
		if a.Base != 0 {
			laidOut = true
		}
	}
	if !laidOut {
		p.Layout(0, cfg.PageSize)
	}

	// The simulator's Config doubles as the architecture description:
	// AddrMapFor resolves the address map the compiler inspects (the
	// VA→PA guarantee) without instantiating the cache models.
	amap := sim.AddrMapFor(cfg)
	shared := cfg.LLCOrg == cache.SharedSNUCA

	acc := opts.CMEAccuracy
	if acc == 0 {
		acc = cme.AccuracyFor(p.Name)
	}
	est := cme.New(cme.Config{
		Mesh:        cfg.Mesh,
		Org:         cfg.LLCOrg,
		AMap:        amap,
		L1Line:      cfg.L1Line,
		ModelBytes:  cfg.L2PerCore,
		ModelLine:   cfg.L2Line,
		ModelWays:   cfg.L2Ways,
		IterSetFrac: cfg.IterSetFrac,
		Accuracy:    acc,
		Seed:        1,
	})
	mapper := core.NewMapper(opts.Mapper)

	res := &Result{
		Program:  p,
		Schedule: &sim.Schedule{Assign: make([]*core.Assignment, len(p.Nests))},
	}
	for _, n := range p.Nests {
		plan := NestPlan{
			Nest:         n,
			Sets:         n.IterationSets(cfg.IterSetFrac),
			ParallelSafe: loop.AnalyzeParallel(n),
		}
		irregular := false
		for i := range n.Refs {
			if n.Refs[i].Irregular {
				irregular = true
			}
		}
		if irregular {
			plan.NeedsInspector = true
			res.NeedsInspector = true
			// The capacity model still walks the nest's regular refs
			// so later nests see their footprint.
			est.EstimateNest(n)
		} else {
			plan.Affinities = est.EstimateNest(n)
			plan.Assignment = mapper.Map(plan.Affinities, shared)
			res.Schedule.Assign[len(res.Plans)] = plan.Assignment
		}
		res.Plans = append(res.Plans, plan)
	}
	return res, nil
}

// Listing renders the annotated pseudo-OpenMP output code: each nest with
// its dependence verdict, its mapping summary, and — for irregular nests
// — the inserted inspector/executor skeleton.
func (r *Result) Listing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* locmap output for %q */\n", r.Program.Name)
	for _, a := range r.Program.Arrays {
		fmt.Fprintf(&b, "double %s[%d]; /* base=0x%x (%d bytes) */\n",
			a.Name, a.Elems, a.Base, a.SizeBytes())
	}
	for i, plan := range r.Plans {
		n := plan.Nest
		fmt.Fprintf(&b, "\n/* nest %d %q: %d iterations in %d sets", i, n.Name, n.Iterations(), len(plan.Sets))
		if !plan.ParallelSafe {
			b.WriteString("; WARNING: dependence test could not prove independence")
		}
		b.WriteString(" */\n")
		switch {
		case plan.NeedsInspector:
			fmt.Fprintf(&b, "/* irregular: inspector-executor */\n")
			fmt.Fprintf(&b, "if (timing_iter == 1) locmap_inspect(nest%d);   /* record hits/misses, build MAI/CAI, set alpha */\n", i)
			fmt.Fprintf(&b, "locmap_schedule_t *map%d = locmap_map(nest%d);  /* Algorithm 1/2 at runtime */\n", i, i)
			fmt.Fprintf(&b, "#pragma omp parallel for schedule(locmap, map%d)\n", i)
		default:
			counts := plan.Assignment.RegionCounts(regionCount(plan.Assignment))
			fmt.Fprintf(&b, "/* static mapping: regions %v, %d sets rebalanced (%.1f%%) */\n",
				counts, plan.Assignment.Moved, 100*plan.Assignment.FracMoved())
			if k := sampleSet(plan); k >= 0 {
				fmt.Fprintf(&b, "/* e.g. set %d -> core %d: MAI=%s alpha=%.2f */\n",
					k, plan.Assignment.Core[k], fmtVec(plan.Affinities[k].MAI), plan.Affinities[k].Alpha)
			}
			fmt.Fprintf(&b, "#pragma omp parallel for schedule(locmap, nest%d_map)\n", i)
		}
		b.WriteString(emitLoop(n))
	}
	return b.String()
}

// regionCount infers the number of regions from an assignment.
func regionCount(a *core.Assignment) int {
	maxR := 0
	for _, r := range a.Region {
		if int(r) > maxR {
			maxR = int(r)
		}
	}
	return maxR + 1
}

// sampleSet picks a representative set (the first with information).
func sampleSet(plan NestPlan) int {
	for k := range plan.Affinities {
		if plan.Affinities[k].MAI.Sum() > 0 {
			return k
		}
	}
	return -1
}

func fmtVec(v affinity.Vector) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// emitLoop renders the nest body as C-like loops.
func emitLoop(n *loop.Nest) string {
	var b strings.Builder
	iters := []string{"i", "j", "k", "l", "m", "n"}
	for d, bound := range n.Bounds {
		iv := iters[d%len(iters)]
		fmt.Fprintf(&b, "%sfor (int %s = 0; %s < %d; %s++)\n",
			strings.Repeat("  ", d), iv, iv, bound, iv)
	}
	depth := strings.Repeat("  ", len(n.Bounds))
	for i := range n.Refs {
		r := &n.Refs[i]
		op := "load"
		if r.Kind == loop.Write {
			op = "store"
		}
		if r.Irregular {
			fmt.Fprintf(&b, "%s/* %s %s[%s[...]] */\n", depth, op, r.Array.Name, r.IndexArrayName)
		} else {
			fmt.Fprintf(&b, "%s/* %s %s[%s] */\n", depth, op, r.Array.Name, fmtAffine(r.Index, iters))
		}
	}
	return b.String()
}

func fmtAffine(a loop.Affine, iters []string) string {
	var parts []string
	for d, c := range a.Coeffs {
		switch {
		case c == 0:
		case c == 1:
			parts = append(parts, iters[d%len(iters)])
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, iters[d%len(iters)]))
		}
	}
	if a.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", a.Const))
	}
	return strings.Join(parts, "+")
}
