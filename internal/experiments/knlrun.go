package experiments

import (
	"locmap/internal/cache"
	"locmap/internal/core"
	"locmap/internal/inspector"
	"locmap/internal/knl"
	"locmap/internal/loop"
	"locmap/internal/sim"
	"locmap/internal/stats"
	"locmap/internal/workloads"
)

// knlExec measures a program on the KNL-like machine in one cluster
// mode and returns the cycles of the default schedule and of the
// location-aware one, both on one machine. Page placement (SNC-4 first
// touch) is fixed by the default schedule before either runs, as on
// the real machine where data is placed on first run. The default
// run's cold iteration 0 is the profiling pass the location-aware
// schedule is derived from (the compiler's knowledge), and the
// measured run then executes entirely under it, Reset to cold.
func knlExec(p *loop.Program, mode knl.Mode) (def, opt int64) {
	cfg := knl.Config(mode)
	cfg.LLCOrg = cache.SharedSNUCA
	kmap := cfg.AddrMap.(*knl.Map)

	// First touch writes the address map every run reads, so it
	// precedes the first simulation.
	sys := sim.New(cfg)
	kmap.FirstTouch(p, sys.DefaultScheduleFor(p), cfg.IterSetFrac)
	base := inspector.RunBaseline(sys, p)

	// Profile → affinities → Algorithm 2 schedule.
	sched, _ := inspector.MapObserved(sys, p, base[0], core.NewMapper(core.Config{Mesh: cfg.Mesh}))

	sys.Reset()
	return sim.TotalCycles(base), sim.TotalCycles(sys.RunTiming(p, func(int) *sim.Schedule { return sched }))
}

// knlModes are the cluster modes one knlJobs group measures, in job
// order; the first, all-to-all, is the original configuration every
// bar compares against.
var knlModes = []knl.Mode{knl.AllToAll, knl.Quadrant, knl.SNC4}

// knlJobs declares one job per cluster mode for one application at one
// scale.
func knlJobs(name string, scale int) []Job {
	jobs := make([]Job, len(knlModes))
	for i, mode := range knlModes {
		jobs[i] = Job{Kind: KindKNL, App: name, Scale: scale, KNLMode: mode}
	}
	return jobs
}

// knlBars folds one knlJobs group's results into the five Figure 16
// bars, each relative to the original all-to-all cycles: the original
// quadrant and SNC-4 runs, then every mode's optimized run.
func knlBars(ms []AppMetrics) (bars [5]float64) {
	base := float64(ms[0].DefCycles)
	cycles := [5]int64{ms[1].DefCycles, ms[2].DefCycles, ms[0].LACycles, ms[1].LACycles, ms[2].LACycles}
	for i, c := range cycles {
		bars[i] = stats.PctReduction(base, float64(c))
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
		bars := knlBars(ms[len(knlModes)*i : len(knlModes)*(i+1)])
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
			bars := knlBars(ms[len(knlModes)*g : len(knlModes)*(g+1)])
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
