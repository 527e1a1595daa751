// Package inspector implements the inspector–executor runtime the paper
// uses for irregular applications (§4): the first iteration of the outer
// timing loop runs under the default schedule while an inserted inspector
// records, per iteration set, the LLC hits, the banks that served them and
// the MCs that handled the misses. From those observations it builds MAI,
// CAI and α, maps the sets with Algorithm 1/2, and the remaining timing
// iterations (the executor) run under the optimized schedule.
//
// The instrumentation is not free: Overhead models the bookkeeping cost
// per recorded access plus the mapping computation, and is charged to the
// application's execution time exactly as the paper's measured overheads
// (0.7%–19.5%, Figures 7c/8c) are.
package inspector

import (
	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/core"
	"locmap/internal/loop"
	"locmap/internal/sim"
)

// OverheadModel prices the inspector's run-time work in core cycles.
type OverheadModel struct {
	// PerAccess is the bookkeeping cost per recorded LLC access
	// (classifying hit/miss, bumping the right histogram bucket).
	PerAccess float64
	// PerSetPerRegion is the cost of one η evaluation during mapping.
	PerSetPerRegion float64
}

// DefaultOverhead returns the calibrated instrumentation prices.
func DefaultOverhead() OverheadModel {
	return OverheadModel{PerAccess: 2, PerSetPerRegion: 12}
}

// AffinitiesFromObs converts one nest's observed per-set behaviour into
// affinity vectors: the exact computation the inspector code inserted by
// the compiler performs at run time. It is also reused by the
// perfect-estimation oracle (Figure 15), which is precisely "inspector
// observations with zero error".
func AffinitiesFromObs(obs []sim.SetObs, sets []loop.IterSet, shared bool) []affinity.SetAffinity {
	out := make([]affinity.SetAffinity, len(obs))
	for k := range obs {
		ob := &obs[k]
		mai := affinity.Vector(append([]float64(nil), ob.MCMisses...))
		mai.Normalize()
		sa := affinity.SetAffinity{
			MAI:    mai,
			Alpha:  affinity.Alpha(ob.LLCHits, ob.LLCAccesses),
			Weight: sets[k].Len(),
		}
		if shared {
			cai := affinity.Vector(append([]float64(nil), ob.RegionHits...))
			cai.Normalize()
			sa.CAI = cai
		}
		out[k] = sa
	}
	return out
}

// Result is the outcome of one inspected program execution.
type Result struct {
	// Results holds the per-timing-iteration simulation results
	// (iteration 0 ran the inspector under the default schedule).
	Results []sim.ProgramResult
	// Optimized is the schedule the executor iterations used.
	Optimized *sim.Schedule
	// OverheadCycles is the instrumentation + mapping cost charged on
	// top of the simulated cycles.
	OverheadCycles int64
	// PerNest holds the affinities the inspector derived (for accuracy
	// studies).
	PerNest [][]affinity.SetAffinity
}

// TotalCycles returns simulated time plus instrumentation overhead.
func (r *Result) TotalCycles() int64 {
	return sim.TotalCycles(r.Results) + r.OverheadCycles
}

// NetLatency returns total network latency across timing iterations.
func (r *Result) NetLatency() uint64 { return sim.TotalNetLatency(r.Results) }

// MapObserved is the run-time front half of the Figure 4 pipeline: for
// each nest in order it turns one profiled iteration's per-set
// observations (first, a run of p on sys) into affinities with
// AffinitiesFromObs and maps them with Algorithm 1/2 for sys's LLC
// organization. It returns the schedule and the per-nest affinities.
func MapObserved(sys *sim.System, p *loop.Program, first sim.ProgramResult, mapper *core.Mapper) (*sim.Schedule, [][]affinity.SetAffinity) {
	shared := sys.Config().LLCOrg == cache.SharedSNUCA
	sched := &sim.Schedule{Assign: make([]*core.Assignment, len(p.Nests))}
	affs := make([][]affinity.SetAffinity, len(p.Nests))
	for i, n := range p.Nests {
		affs[i] = AffinitiesFromObs(first.NestObs[i], sys.Sets(n), shared)
		sched.Assign[i] = mapper.Map(affs[i], shared)
	}
	return sched, affs
}

// Run executes program p on sys under the inspector–executor paradigm:
// timing iteration 0 uses the default schedule and is profiled; the
// derived location-aware schedule drives iterations 1..TimingIters-1.
// mapper performs the Algorithm 1/2 assignment; ov prices the overhead.
func Run(sys *sim.System, p *loop.Program, mapper *core.Mapper, ov OverheadModel) *Result {
	first := sys.RunProgram(p, sys.DefaultScheduleFor(p))
	res := &Result{Results: []sim.ProgramResult{first}}

	// Inspector: build affinities and the optimized schedule from the
	// first iteration's observations, charging instrumentation costs.
	res.Optimized, res.PerNest = MapObserved(sys, p, first, mapper)
	var instr, mapping float64
	for i, sa := range res.PerNest {
		for k := range sa {
			instr += first.NestObs[i][k].LLCAccesses * ov.PerAccess
		}
		mapping += float64(len(sa)*sys.Mesh().NumRegions()) * ov.PerSetPerRegion
	}
	// Both instrumentation (inside the parallel inspector iteration) and
	// the η evaluations of the mapping step (independent per nest, done
	// on the worker threads between inspector and executor) parallelize
	// across the cores, so wall-clock overhead is the per-core share.
	res.OverheadCycles = int64((instr + mapping) / float64(sys.Mesh().NumNodes()))

	// Executor: remaining timing iterations under the optimized map.
	iters := p.TimingIters
	if iters < 1 {
		iters = 1
	}
	for it := 1; it < iters; it++ {
		res.Results = append(res.Results, sys.RunProgram(p, res.Optimized))
	}
	return res
}

// RunBaseline executes the same timing loop entirely under the default
// schedule with no instrumentation — the comparison point for Run.
func RunBaseline(sys *sim.System, p *loop.Program) []sim.ProgramResult {
	def := sys.DefaultScheduleFor(p)
	return sys.RunTiming(p, func(int) *sim.Schedule { return def })
}

// Evaluate runs both sides of the inspector–executor comparison: the
// baseline (RunBaseline) on sys and the inspected run (Run). At one
// timing iteration the inspected run simulates only the profiled
// iteration 0, which runs the default schedule and so is the
// baseline's iteration 0: Evaluate simulates it once, and both sides
// end on sys. When executor iterations follow (TimingIters > 1) the
// inspected run gets a fresh machine of its own. Evaluate returns the
// baseline's per-iteration results, the inspected Result and the
// machine that ran it; the results equal those of RunBaseline and Run
// on two fresh machines.
func Evaluate(sys *sim.System, p *loop.Program, mapper *core.Mapper, ov OverheadModel) (baseline []sim.ProgramResult, res *Result, exec *sim.System) {
	if p.TimingIters > 1 {
		exec = sim.New(sys.Config())
		return RunBaseline(sys, p), Run(exec, p, mapper, ov), exec
	}
	res = Run(sys, p, mapper, ov)
	return res.Results[:1:1], res, sys
}

// Compare simulates p under the default round-robin schedule and under
// the location-aware one, starting on the fresh machine sys, and
// returns both cycle totals and the machine whose statistics describe
// the location-aware run. sched is the compiled schedule; nil means p
// needs the inspector, which Evaluate runs with mapper and ov. A
// compiled schedule runs after the baseline on sys, Reset to a cold
// machine. The cycles equal what two fresh machines compute.
func Compare(sys *sim.System, p *loop.Program, sched *sim.Schedule, mapper *core.Mapper, ov OverheadModel) (defCycles, laCycles int64, exec *sim.System) {
	if sched == nil {
		base, r, exec := Evaluate(sys, p, mapper, ov)
		return sim.TotalCycles(base), r.TotalCycles(), exec
	}
	defCycles = sim.TotalCycles(RunBaseline(sys, p))
	sys.Reset()
	return defCycles, sim.TotalCycles(sys.RunTiming(p, func(int) *sim.Schedule { return sched })), sys
}
