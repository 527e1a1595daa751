package experiments

import (
	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/core"
	"locmap/internal/inspector"
	"locmap/internal/knl"
	"locmap/internal/sim"
	"locmap/internal/stats"
	"locmap/internal/workloads"
)

// knlExec measures one application on the KNL-like machine in one cluster
// mode. When optimized, the location-aware schedule is derived from a
// profiling pass under the default schedule (the compiler's knowledge)
// and the measured run executes entirely under it on the same machine,
// Reset to cold; page placement (SNC-4 first touch) is fixed by the
// default schedule in both cases, as on the real machine where data is
// placed on first run.
func knlExec(name string, scale int, mode knl.Mode, optimized bool) int64 {
	p := workloads.MustNew(name, scale)
	cfg := knl.Config(mode)
	cfg.LLCOrg = cache.SharedSNUCA
	kmap := cfg.AddrMap.(*knl.Map)

	// First touch writes the address map every run reads, so it
	// precedes the first simulation.
	sys := sim.New(cfg)
	def := sys.DefaultScheduleFor(p)
	kmap.FirstTouch(p, def, cfg.IterSetFrac)

	if !optimized {
		return sim.TotalCycles(inspector.RunBaseline(sys, p))
	}

	// Profile pass → affinities → Algorithm 2 schedule.
	first := sys.RunProgram(p, def)
	est := make([][]affinity.SetAffinity, len(p.Nests))
	for i, n := range p.Nests {
		est[i] = inspector.AffinitiesFromObs(first.NestObs[i], sys.Sets(n), true)
	}
	mapper := core.NewMapper(core.Config{Mesh: cfg.Mesh})
	sched, _ := scheduleFromAffinities(p, mapper, true, est)

	sys.Reset()
	return sim.TotalCycles(sys.RunTiming(p, func(int) *sim.Schedule { return sched }))
}

// knlBarCfgs are the five Figure 16 bars, in figure order; the base
// measurement (original all-to-all) precedes them in each job group.
var knlBarCfgs = []struct {
	mode knl.Mode
	opt  bool
}{
	{knl.Quadrant, false},
	{knl.SNC4, false},
	{knl.AllToAll, true},
	{knl.Quadrant, true},
	{knl.SNC4, true},
}

// knlJobs declares the six measurements for one application at one
// scale: the original all-to-all base plus the five bars.
func knlJobs(name string, scale int) []Job {
	jobs := make([]Job, 0, 1+len(knlBarCfgs))
	jobs = append(jobs, Job{Kind: KindKNL, App: name, Scale: scale, KNLMode: knl.AllToAll})
	for _, c := range knlBarCfgs {
		jobs = append(jobs, Job{Kind: KindKNL, App: name, Scale: scale, KNLMode: c.mode, KNLOpt: c.opt})
	}
	return jobs
}

// knlBars folds one knlJobs group's results into the five improvement
// bars relative to the base measurement.
func knlBars(ms []AppMetrics) (bars [5]float64) {
	base := float64(ms[0].DefCycles)
	for i := range bars {
		bars[i] = stats.PctReduction(base, float64(ms[i+1].DefCycles))
	}
	return bars
}

var knlCols = []string{"benchmark", "orig quadrant", "orig SNC-4", "opt all-to-all", "opt quadrant", "opt SNC-4"}

// Fig16 reproduces the KNL cluster-mode study: execution-time improvement
// of every configuration relative to the original all-to-all mode.
func Fig16(o Options) *stats.Table {
	apps := o.apps()
	var jobs []Job
	for _, name := range apps {
		jobs = append(jobs, knlJobs(name, o.scale())...)
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Figure 16: KNL cluster modes — exec-time improvement vs original all-to-all (%)", knlCols...)
	sums := make([][]float64, 5)
	for i, name := range apps {
		bars := knlBars(ms[6*i : 6*i+6])
		t.AddRowf(name, bars[0], bars[1], bars[2], bars[3], bars[4])
		for k, b := range bars {
			sums[k] = append(sums[k], b)
		}
	}
	t.AddRowf("GEOMEAN", stats.GeomeanPct(sums[0]), stats.GeomeanPct(sums[1]),
		stats.GeomeanPct(sums[2]), stats.GeomeanPct(sums[3]), stats.GeomeanPct(sums[4]))
	return t
}

// Fig17 reproduces the KNL input-scaling study on the nine applications
// whose inputs could be enlarged: the Figure 16 bars at ~2× and ~4× the
// default input size.
func Fig17(o Options) *stats.Table {
	apps := o.Apps
	if apps == nil {
		apps = workloads.KNLScaleSubset()
	}
	scales := []int{2, 4}
	var jobs []Job
	for _, scale := range scales {
		for _, name := range apps {
			jobs = append(jobs, knlJobs(name, scale)...)
		}
	}
	ms := o.collect(o.runner(), jobs)

	cols := append([]string{"scale"}, knlCols...)
	t := stats.NewTable("Figure 17: KNL with 2x and 4x inputs — exec-time improvement vs original all-to-all (%)", cols...)
	g := 0
	for _, scale := range scales {
		sums := make([][]float64, 5)
		for _, name := range apps {
			bars := knlBars(ms[6*g : 6*g+6])
			g++
			t.AddRowf(scale, name, bars[0], bars[1], bars[2], bars[3], bars[4])
			for k, b := range bars {
				sums[k] = append(sums[k], b)
			}
		}
		t.AddRowf(scale, "GEOMEAN", stats.GeomeanPct(sums[0]), stats.GeomeanPct(sums[1]),
			stats.GeomeanPct(sums[2]), stats.GeomeanPct(sums[3]), stats.GeomeanPct(sums[4]))
	}
	return t
}
