package experiments

import (
	"reflect"
	"testing"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/cme"
	"locmap/internal/core"
	"locmap/internal/inspector"
	"locmap/internal/knl"
	"locmap/internal/loop"
	"locmap/internal/sim"
	"locmap/internal/workloads"
)

// runAppSeparate is RunAppTraffic's reference: every simulation on its
// own fresh machine, one after another — the ideal-NoC bound, the
// baseline, the oracle's profiling pass, and the location-aware run.
func runAppSeparate(p *loop.Program, v Variant) (AppMetrics, Traffic) {
	shared := v.Cfg.LLCOrg == cache.SharedSNUCA
	m := AppMetrics{Name: p.Name, Regular: p.Regular}

	if v.WithIdeal {
		icfg := v.Cfg
		icfg.NoC.Ideal = true
		m.IdealCycles = sim.TotalCycles(inspector.RunBaseline(sim.New(icfg), p))
	}
	sysD := sim.New(v.Cfg)
	defRes := inspector.RunBaseline(sysD, p)
	m.DefCycles = sim.TotalCycles(defRes)
	m.DefNet = sim.TotalNetLatency(defRes)
	m.LLCMissRate = sysD.Stats().LLCMissRate()
	mapper := core.NewMapper(v.Mapper)

	sys := sim.New(v.Cfg)
	if v.Oracle || p.Regular {
		var est [][]affinity.SetAffinity
		if v.Oracle {
			prof := sim.New(v.Cfg)
			first := prof.RunProgram(p, prof.DefaultScheduleFor(p))
			est = make([][]affinity.SetAffinity, len(p.Nests))
			for i, n := range p.Nests {
				est[i] = inspector.AffinitiesFromObs(first.NestObs[i], prof.Sets(n), shared)
			}
		} else {
			cfg := v.Cfg
			est = cme.New(cme.Config{
				Mesh:        cfg.Mesh,
				Org:         cfg.LLCOrg,
				AMap:        sys.AddrMap(),
				L1Line:      cfg.L1Line,
				ModelBytes:  cfg.L2PerCore,
				ModelLine:   cfg.L2Line,
				ModelWays:   cfg.L2Ways,
				IterSetFrac: cfg.IterSetFrac,
				Accuracy:    cme.AccuracyFor(p.Name),
				Seed:        1,
			}).EstimateProgram(p)
		}
		sched, frac := mapNests(mapper, shared, est)
		m.FracMoved = frac
		res := sys.RunTiming(p, func(int) *sim.Schedule { return sched })
		m.LACycles = sim.TotalCycles(res)
		m.LANet = sim.TotalNetLatency(res)
		m.MAIErr, m.CAIErr = affinityError(est, res[len(res)-1], p, sys, shared)
	} else {
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
	return m, Traffic{Default: sysD.NodeTraffic(), LocAware: sys.NodeTraffic()}
}

// mapNests is the references' mapping step: Algorithm 2 or 1 over
// every nest's affinities, with the fraction of sets load balancing
// moved over the whole program.
func mapNests(mapper *core.Mapper, shared bool, perNest [][]affinity.SetAffinity) (*sim.Schedule, float64) {
	sched := &sim.Schedule{Assign: make([]*core.Assignment, len(perNest))}
	var moved, total float64
	for i, sa := range perNest {
		if shared {
			sched.Assign[i] = mapper.MapShared(sa)
		} else {
			sched.Assign[i] = mapper.MapPrivate(sa)
		}
		moved += float64(sched.Assign[i].Moved)
		total += float64(len(sa))
	}
	if total == 0 {
		return sched, 0
	}
	return sched, moved / total
}

// smallMoldyn is moldyn cut to its first four force phases and first
// two neighbor-list phases: the same irregular gathers and three timing
// iterations at a tenth of the simulation.
func smallMoldyn() *loop.Program {
	p := workloads.MustNew("moldyn", 1)
	var keep []*loop.Nest
	for _, n := range p.Nests {
		switch n.Name {
		case "force0", "force1", "force2", "force3", "neighbors0", "neighbors1":
			keep = append(keep, n)
		}
	}
	p.Nests = keep
	return p
}

// TestRunAppMatchesSeparateMachines covers the irregular paths the
// golden tables miss (their apps are regular): a cut-down moldyn, with
// three timing iterations, through the inspector under both LLC
// organizations and through the oracle, and at one timing iteration,
// where the baseline and the inspector share their default iteration
// (also with the ideal-NoC bound beside them). RunAppTraffic reuses one machine where it can and runs the
// ideal-NoC bound and the CME path's location-aware run beside the
// baseline; its metrics and traffic must equal the separate-machine
// reference exactly. The mxm cases check the per-node traffic of the
// regular (CME) path, which simnoc -heatmap draws, with and without
// the ideal bound.
func TestRunAppMatchesSeparateMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	if p := smallMoldyn(); p.Regular || p.TimingIters != 3 || len(p.Nests) != 6 {
		t.Fatalf("moldyn: regular %v, %d timing iterations, %d nests; want irregular with 3 and 6",
			p.Regular, p.TimingIters, len(p.Nests))
	}
	moldynT1 := func() *loop.Program {
		p := smallMoldyn()
		p.TimingIters = 1
		return p
	}
	mxm := func() *loop.Program { return workloads.MustNew("mxm", 1) }
	oracle := DefaultVariant(cache.Private)
	oracle.Oracle = true
	withIdeal := func(org cache.Organization) Variant {
		v := DefaultVariant(org)
		v.WithIdeal = true
		return v
	}
	cases := []struct {
		name string
		prog func() *loop.Program
		v    Variant
	}{
		{"moldyn/private", smallMoldyn, DefaultVariant(cache.Private)},
		{"moldyn/shared", smallMoldyn, DefaultVariant(cache.SharedSNUCA)},
		{"moldyn/private-oracle", smallMoldyn, oracle},
		{"moldyn-T1/shared", moldynT1, DefaultVariant(cache.SharedSNUCA)},
		{"moldyn-T1/shared-ideal", moldynT1, withIdeal(cache.SharedSNUCA)},
		{"mxm/private", mxm, DefaultVariant(cache.Private)},
		{"mxm/shared", mxm, DefaultVariant(cache.SharedSNUCA)},
		{"mxm/private-ideal", mxm, withIdeal(cache.Private)},
		{"mxm/shared-ideal", mxm, withIdeal(cache.SharedSNUCA)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, gotTr := RunAppTraffic(c.prog(), c.v)
			if c.v.WithIdeal && got.IdealCycles <= 0 {
				t.Errorf("ideal cycles = %d, want a measured bound", got.IdealCycles)
			}
			want, wantTr := runAppSeparate(c.prog(), c.v)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("metrics\n got %+v\nwant %+v", got, want)
			}
			if !reflect.DeepEqual(gotTr, wantTr) {
				t.Error("per-node traffic differs from the separate machines'")
			}
		})
	}
}

// knlSeparate is knlExec's reference: the two jobs a cluster mode
// used to take, each on a fresh first-touched machine — the default
// schedule's run, and a profiling pass, Reset, then the location-aware
// run.
func knlSeparate(prog func() *loop.Program, mode knl.Mode) (def, opt int64) {
	machine := func(p *loop.Program) (*sim.System, sim.Config) {
		cfg := knl.Config(mode)
		cfg.LLCOrg = cache.SharedSNUCA
		sys := sim.New(cfg)
		cfg.AddrMap.(*knl.Map).FirstTouch(p, sys.DefaultScheduleFor(p), cfg.IterSetFrac)
		return sys, cfg
	}

	p := prog()
	sys, _ := machine(p)
	def = sim.TotalCycles(inspector.RunBaseline(sys, p))

	p = prog()
	sys, cfg := machine(p)
	first := sys.RunProgram(p, sys.DefaultScheduleFor(p))
	est := make([][]affinity.SetAffinity, len(p.Nests))
	for i, n := range p.Nests {
		est[i] = inspector.AffinitiesFromObs(first.NestObs[i], sys.Sets(n), true)
	}
	sched, _ := mapNests(core.NewMapper(core.Config{Mesh: cfg.Mesh}), true, est)
	sys.Reset()
	opt = sim.TotalCycles(sys.RunTiming(p, func(int) *sim.Schedule { return sched }))
	return def, opt
}

// TestKNLExecMatchesSeparateJobs: one KNL job profiles from its own
// baseline's iteration 0 and Resets for the location-aware run; both
// cycle counts must equal the two separate first-touched jobs', under
// all-to-all and under SNC-4, whose first touch pins pages to
// quadrants. The cut-down moldyn has three timing iterations, so a
// profile taken from a warm iteration would show.
func TestKNLExecMatchesSeparateJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, mode := range []knl.Mode{knl.AllToAll, knl.SNC4} {
		t.Run(mode.String(), func(t *testing.T) {
			def, opt := knlExec(smallMoldyn(), mode)
			wantDef, wantOpt := knlSeparate(smallMoldyn, mode)
			if def != wantDef || opt != wantOpt {
				t.Errorf("knlExec = (%d, %d) cycles, separate jobs = (%d, %d)", def, opt, wantDef, wantOpt)
			}
			if def == opt {
				t.Errorf("default and location-aware runs both took %d cycles; want distinct schedules", def)
			}
		})
	}
}
