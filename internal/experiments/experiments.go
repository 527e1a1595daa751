// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each FigNN function declares the simulations it needs
// as Jobs, executes them on a concurrent, memoizing Runner, and assembles
// the same rows/series the paper reports — in deterministic benchmark
// order, byte-identical at any parallelism level. cmd/paperbench and the
// repository's benchmark suite are thin wrappers over this package.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/cme"
	"locmap/internal/core"
	"locmap/internal/inspector"
	"locmap/internal/loop"
	"locmap/internal/sim"
	"locmap/internal/stats"
	"locmap/internal/workloads"
)

// Options control a harness run.
type Options struct {
	// Scale multiplies workload input sizes (Figure 17 uses 2 and 4).
	Scale int
	// Apps restricts the benchmark set (nil = all 21).
	Apps []string
	// Log receives progress lines (nil = quiet).
	Log io.Writer
	// Jobs bounds the number of concurrently simulated jobs when a
	// figure builds its own runner (0 = runtime.NumCPU()).
	Jobs int
	// Runner, when non-nil, executes and memoizes this call's jobs.
	// Sharing one Runner across figure calls (as cmd/paperbench does)
	// additionally deduplicates identical jobs across figures.
	Runner *Runner
	// SimWorkers sets the region engine's in-run worker count on jobs
	// when a figure builds its own runner (0 = serial). Results are
	// bit-identical at any value; a shared Runner carries its own
	// setting instead.
	SimWorkers int
}

func (o Options) scale() int {
	if o.Scale < 1 {
		return 1
	}
	return o.Scale
}

func (o Options) apps() []string {
	if len(o.Apps) > 0 {
		return o.Apps
	}
	return workloads.Names()
}

// logMu serializes progress output: jobs complete on worker goroutines,
// and unsynchronized Fprintf calls to a shared writer could tear lines.
var logMu sync.Mutex

func (o Options) logf(format string, args ...any) {
	if o.Log == nil {
		return
	}
	logMu.Lock()
	defer logMu.Unlock()
	fmt.Fprintf(o.Log, format+"\n", args...)
}

// runner returns the shared runner, or builds a fresh one for this
// figure call.
func (o Options) runner() *Runner {
	if o.Runner != nil {
		return o.Runner
	}
	r := NewRunner(o.Jobs)
	r.SimWorkers = o.SimWorkers
	return r
}

// collect runs jobs through r, logging each as it completes. Lines are
// atomic but arrive in completion order when the pool is wider than one.
func (o Options) collect(r *Runner, jobs []Job) []AppMetrics {
	if o.Log == nil {
		return r.Collect(jobs, nil)
	}
	return r.Collect(jobs, func(i int, m AppMetrics) { o.logJob(jobs[i], m) })
}

// logJob emits one progress line for a completed job.
func (o Options) logJob(j Job, m AppMetrics) {
	switch j.Kind {
	case KindBaseline:
		if j.Variant.WithIdeal {
			o.logf("  %-10s %-7v baseline: def=%d ideal=%.1f%%", j.App, j.Variant.Cfg.LLCOrg, m.DefCycles, m.IdealRed())
		} else {
			o.logf("  %-10s %-7v baseline: def=%d", j.App, j.Variant.Cfg.LLCOrg, m.DefCycles)
		}
	case KindHW:
		o.logf("  %-10s %-7v hw-placement: %d cycles", j.App, j.Variant.Cfg.LLCOrg, m.LACycles)
	case KindKNL:
		o.logf("  %-10s knl %v opt=%v scale=%d: %d cycles", j.App, j.KNLMode, j.KNLOpt, j.scale(), m.DefCycles)
	case KindMulti:
		for i, name := range j.Mix {
			o.logf("  %v %-10s multi: %.1f%%", j.Variant.Cfg.LLCOrg, name, m.MixRed(i))
		}
	default:
		tag := ""
		if j.Variant.Oracle {
			tag = " (oracle)"
		}
		o.logf("  %-10s %-7v netRed=%5.1f%% execRed=%5.1f%% maiErr=%.3f%s",
			j.App, j.Variant.Cfg.LLCOrg, m.NetRed(), m.ExecRed(), m.MAIErr, tag)
	}
}

// Variant describes one machine/estimation configuration to evaluate an
// application under.
type Variant struct {
	Cfg    sim.Config
	Mapper core.Config
	// Oracle uses observed (perfect) affinities with zero overhead —
	// the Figure 15 study.
	Oracle bool
	// WithIdeal additionally measures the zero-latency-NoC baseline.
	WithIdeal bool
}

// DefaultVariant returns the Table 4 machine with the given LLC
// organization.
func DefaultVariant(org cache.Organization) Variant {
	cfg := sim.DefaultConfig()
	cfg.LLCOrg = org
	return Variant{Cfg: cfg, Mapper: core.Config{Mesh: cfg.Mesh}}
}

// AppMetrics holds one application's measurements under one variant.
type AppMetrics struct {
	Name    string
	Regular bool

	DefCycles, LACycles, IdealCycles int64
	DefNet, LANet                    uint64

	// MAIErr/CAIErr are the mean η between estimated and observed
	// affinity vectors (Figures 7a / 8a).
	MAIErr, CAIErr float64

	// OverheadFrac is the inspector runtime overhead as a fraction of
	// total execution (Figures 7c / 8c); zero for regular apps.
	OverheadFrac float64

	// FracMoved is the fraction of iteration sets transferred by load
	// balancing (Table 3).
	FracMoved float64

	LLCMissRate float64

	// MixDef and MixLA hold each co-running application's default and
	// location-aware cycles, in mix order (KindMulti only).
	MixDef, MixLA [mixSlots]int64
}

// NetRed returns the percentage reduction in total network latency.
func (m AppMetrics) NetRed() float64 {
	return stats.PctReduction(float64(m.DefNet), float64(m.LANet))
}

// ExecRed returns the percentage reduction in execution time.
func (m AppMetrics) ExecRed() float64 {
	return stats.PctReduction(float64(m.DefCycles), float64(m.LACycles))
}

// IdealRed returns the ideal-network execution-time improvement bound.
func (m AppMetrics) IdealRed() float64 {
	return stats.PctReduction(float64(m.DefCycles), float64(m.IdealCycles))
}

// MixRed returns the execution-time reduction of the i-th co-running
// application (KindMulti only).
func (m AppMetrics) MixRed(i int) float64 {
	return stats.PctReduction(float64(m.MixDef[i]), float64(m.MixLA[i]))
}

func newEstimator(p *loop.Program, sys *sim.System, oracleAcc bool) *cme.Estimator {
	cfg := sys.Config()
	acc := cme.AccuracyFor(p.Name)
	if oracleAcc {
		acc = 1
	}
	return cme.New(cme.Config{
		Mesh:        cfg.Mesh,
		Org:         cfg.LLCOrg,
		AMap:        sys.AddrMap(),
		L1Line:      cfg.L1Line,
		ModelBytes:  cfg.L2PerCore,
		ModelLine:   cfg.L2Line,
		ModelWays:   cfg.L2Ways,
		IterSetFrac: cfg.IterSetFrac,
		Accuracy:    acc,
		Seed:        1,
	})
}

// scheduleFromAffinities maps every nest's affinities with Algorithm 1/2.
func scheduleFromAffinities(p *loop.Program, mapper *core.Mapper, shared bool, perNest [][]affinity.SetAffinity) (*sim.Schedule, float64) {
	sched := &sim.Schedule{Assign: make([]*core.Assignment, len(p.Nests))}
	var moved, total float64
	for i := range p.Nests {
		if shared {
			sched.Assign[i] = mapper.MapShared(perNest[i])
		} else {
			sched.Assign[i] = mapper.MapPrivate(perNest[i])
		}
		moved += float64(sched.Assign[i].Moved)
		total += float64(len(perNest[i]))
	}
	frac := 0.0
	if total > 0 {
		frac = moved / total
	}
	return sched, frac
}

// affinityError compares estimated per-set affinities with the observed
// behaviour of an executed run, returning mean MAI and CAI η errors.
func affinityError(est [][]affinity.SetAffinity, res sim.ProgramResult, p *loop.Program, sys *sim.System, shared bool) (maiErr, caiErr float64) {
	var nMAI, nCAI float64
	for i, n := range p.Nests {
		sets := sys.Sets(n)
		obs := inspector.AffinitiesFromObs(res.NestObs[i], sets, shared)
		for k := range obs {
			if est[i][k].MAI.Sum() > 0 && obs[k].MAI.Sum() > 0 {
				maiErr += affinity.Eta(est[i][k].MAI, obs[k].MAI)
				nMAI++
			}
			if shared && est[i][k].CAI.Sum() > 0 && obs[k].CAI.Sum() > 0 {
				caiErr += affinity.Eta(est[i][k].CAI, obs[k].CAI)
				nCAI++
			}
		}
	}
	if nMAI > 0 {
		maiErr /= nMAI
	}
	if nCAI > 0 {
		caiErr /= nCAI
	}
	return maiErr, caiErr
}

// RunApp evaluates one benchmark under a variant: the default round-robin
// mapping, the location-aware mapping (compile-time CME for regular
// programs, inspector–executor for irregular ones), and optionally the
// ideal network.
func RunApp(name string, scale int, v Variant) AppMetrics {
	p := workloads.MustNew(name, scale)
	shared := v.Cfg.LLCOrg == cache.SharedSNUCA

	m := AppMetrics{Name: name, Regular: p.Regular}

	// Default mapping.
	sysD := sim.New(v.Cfg)
	defRes := inspector.RunBaseline(sysD, p)
	m.DefCycles = sim.TotalCycles(defRes)
	m.DefNet = sim.TotalNetLatency(defRes)
	m.LLCMissRate = sysD.Stats().LLCMissRate()

	// Ideal network bound.
	if v.WithIdeal {
		icfg := v.Cfg
		icfg.NoC.Ideal = true
		sysI := sim.New(icfg)
		m.IdealCycles = sim.TotalCycles(inspector.RunBaseline(sysI, p))
	}

	mcfg := v.Mapper
	if mcfg.Mesh == nil {
		mcfg.Mesh = v.Cfg.Mesh
	}
	mapper := core.NewMapper(mcfg)

	switch {
	case v.Oracle:
		// Perfect MAI/CAI/CME: affinities observed on a separate
		// profiling pass (the compiler knowing the truth), then the
		// whole execution — every timing iteration — runs under the
		// optimized schedule on a fresh machine, with zero overhead.
		prof := sim.New(v.Cfg)
		first := prof.RunProgram(p, prof.DefaultScheduleFor(p))
		est := make([][]affinity.SetAffinity, len(p.Nests))
		for i, n := range p.Nests {
			est[i] = inspector.AffinitiesFromObs(first.NestObs[i], prof.Sets(n), shared)
		}
		sched, frac := scheduleFromAffinities(p, mapper, shared, est)
		m.FracMoved = frac
		sys := sim.New(v.Cfg)
		res := sys.RunTiming(p, func(int) *sim.Schedule { return sched })
		m.LACycles = sim.TotalCycles(res)
		m.LANet = sim.TotalNetLatency(res)
		m.MAIErr, m.CAIErr = affinityError(est, res[len(res)-1], p, sys, shared)

	case p.Regular:
		// Compile-time path: CME-estimated affinities.
		sys := sim.New(v.Cfg)
		est := newEstimator(p, sys, false)
		perNest := est.EstimateProgram(p)
		sched, frac := scheduleFromAffinities(p, mapper, shared, perNest)
		m.FracMoved = frac
		res := sys.RunTiming(p, func(int) *sim.Schedule { return sched })
		m.LACycles = sim.TotalCycles(res)
		m.LANet = sim.TotalNetLatency(res)
		m.MAIErr, m.CAIErr = affinityError(perNest, res[len(res)-1], p, sys, shared)

	default:
		// Irregular path: inspector–executor with overhead accounting.
		sys := sim.New(v.Cfg)
		r := inspector.Run(sys, p, mapper, inspector.DefaultOverhead())
		m.LACycles = r.TotalCycles()
		m.LANet = r.NetLatency()
		m.OverheadFrac = float64(r.OverheadCycles) / float64(m.LACycles)
		var frac, nn float64
		for _, a := range r.Optimized.Assign {
			frac += a.FracMoved()
			nn++
		}
		m.FracMoved = frac / nn
		m.MAIErr, m.CAIErr = affinityError(r.PerNest, r.Results[len(r.Results)-1], p, sys, shared)
	}
	return m
}

// RunAll evaluates a set of benchmarks under one variant, simulating
// them concurrently on the options' runner. Results come back in
// benchmark order regardless of completion order.
func RunAll(o Options, v Variant) []AppMetrics {
	apps := o.apps()
	jobs := make([]Job, len(apps))
	for i, name := range apps {
		jobs[i] = Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: v}
	}
	return o.collect(o.runner(), jobs)
}
