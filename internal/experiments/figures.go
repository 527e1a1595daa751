package experiments

import (
	"fmt"

	"locmap/internal/baselines"
	"locmap/internal/cache"
	"locmap/internal/dram"
	"locmap/internal/mem"
	"locmap/internal/sim"
	"locmap/internal/stats"
	"locmap/internal/topology"
	"locmap/internal/workloads"
)

// orgs lists the two LLC organizations every study covers.
var orgs = []cache.Organization{cache.Private, cache.SharedSNUCA}

// Every FigNN below follows the same shape: declare the jobs it needs
// (in deterministic order), execute them on the runner, then assemble
// the table from the ordered results. The runner may complete jobs in
// any order and dedup those shared with earlier figures; the declared
// order is what fixes the table bytes.

// Fig2 reproduces the ideal-network potential study: per-application
// execution-time improvement with a zero-latency NoC, for private and
// shared LLCs.
func Fig2(o Options) *stats.Table {
	apps := o.apps()
	jobs := make([]Job, 0, 2*len(apps))
	for _, name := range apps {
		for _, org := range orgs {
			v := DefaultVariant(org)
			v.WithIdeal = true
			jobs = append(jobs, Job{Kind: KindBaseline, App: name, Scale: o.scale(), Variant: v})
		}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Figure 2: execution-time improvement with an ideal (zero-latency) NoC (%)",
		"benchmark", "private", "shared")
	var priv, shr []float64
	for i, name := range apps {
		pr, sh := ms[2*i].IdealRed(), ms[2*i+1].IdealRed()
		priv = append(priv, pr)
		shr = append(shr, sh)
		t.AddRowf(name, pr, sh)
	}
	t.AddRowf("GEOMEAN", stats.GeomeanPct(priv), stats.GeomeanPct(shr))
	return t
}

// Table3 reproduces the benchmark-properties table, with the
// fraction-moved column measured from our load balancer.
func Table3(o Options) *stats.Table {
	apps := o.apps()
	jobs := make([]Job, len(apps))
	for i, name := range apps {
		v := DefaultVariant(cache.Private)
		v.Oracle = true // cheapest path to a mapping: one profile run
		jobs[i] = Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: v}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Table 3: benchmark properties",
		"benchmark", "class", "loop nests", "arrays", "iter groups", "frac moved")
	for i, name := range apps {
		spec, _ := workloads.Lookup(name)
		class := "irregular"
		if spec.Regular {
			class = "regular"
		}
		t.AddRowf(name, class, spec.Meta.LoopNests, spec.Meta.Arrays,
			spec.Meta.IterGroups, fmt.Sprintf("%.1f%%", 100*ms[i].FracMoved))
	}
	return t
}

// mainTable renders the Figure 7/8 per-application results.
func mainTable(o Options, org cache.Organization, title string) *stats.Table {
	shared := org == cache.SharedSNUCA
	cols := []string{"benchmark", "MAI err", "net red %", "exec red %", "overhead %"}
	if shared {
		cols = []string{"benchmark", "MAI err", "CAI err", "net red %", "exec red %", "overhead %"}
	}
	t := stats.NewTable(title, cols...)
	ms := RunAll(o, DefaultVariant(org))
	var net, exec, mai, cai, ovh []float64
	for _, m := range ms {
		net = append(net, m.NetRed())
		exec = append(exec, m.ExecRed())
		mai = append(mai, m.MAIErr)
		cai = append(cai, m.CAIErr)
		ovh = append(ovh, 100*m.OverheadFrac)
		if shared {
			t.AddRowf(m.Name, fmt.Sprintf("%.3f", m.MAIErr), fmt.Sprintf("%.3f", m.CAIErr),
				m.NetRed(), m.ExecRed(), 100*m.OverheadFrac)
		} else {
			t.AddRowf(m.Name, fmt.Sprintf("%.3f", m.MAIErr),
				m.NetRed(), m.ExecRed(), 100*m.OverheadFrac)
		}
	}
	if shared {
		t.AddRowf("GEOMEAN", fmt.Sprintf("%.3f", stats.Mean(mai)), fmt.Sprintf("%.3f", stats.Mean(cai)),
			stats.GeomeanPct(net), stats.GeomeanPct(exec), stats.Mean(ovh))
	} else {
		t.AddRowf("GEOMEAN", fmt.Sprintf("%.3f", stats.Mean(mai)),
			stats.GeomeanPct(net), stats.GeomeanPct(exec), stats.Mean(ovh))
	}
	return t
}

// Fig7 reproduces the private-LLC results: MAI estimation error (7a),
// network-latency and execution-time reductions (7b) and runtime
// overheads (7c).
func Fig7(o Options) *stats.Table {
	return mainTable(o, cache.Private, "Figure 7: private LLC — MAI error, reductions, overheads")
}

// Fig8 reproduces the shared-LLC results (8a/8b/8c).
func Fig8(o Options) *stats.Table {
	return mainTable(o, cache.SharedSNUCA, "Figure 8: shared LLC — MAI/CAI error, reductions, overheads")
}

// sensitivityVariants builds the Figure 9 hardware variations.
func sensitivityVariants(org cache.Organization) []struct {
	Name string
	Cfg  sim.Config
} {
	mk := func() sim.Config {
		c := sim.DefaultConfig()
		c.LLCOrg = org
		return c
	}
	def := mk()

	mesh8 := mk()
	mesh8.Mesh = topology.MustNew(8, 8, 4, 4, topology.MCCorners)

	big := mk()
	big.L2PerCore = 1 << 20

	page8k := mk()
	page8k.PageSize = 8 << 10

	mcmid := mk()
	mcmid.Mesh = topology.MustNew(6, 6, 3, 3, topology.MCEdgeMiddles)

	return []struct {
		Name string
		Cfg  sim.Config
	}{
		{"default", def},
		{"8x8 network", mesh8},
		{"1MB/core LLC", big},
		{"page size 8KB", page8k},
		{"MC placement", mcmid},
	}
}

// geomeanReds folds one job group's metrics into geomean reductions.
func geomeanReds(ms []AppMetrics) (net, exec float64) {
	var ns, es []float64
	for _, m := range ms {
		ns = append(ns, m.NetRed())
		es = append(es, m.ExecRed())
	}
	return stats.GeomeanPct(ns), stats.GeomeanPct(es)
}

// Fig9 reproduces the hardware sensitivity study: geometric-mean
// network-latency and execution-time improvements under an 8×8 mesh, a
// 1MB/core LLC, 8KB pages and the alternate MC placement.
func Fig9(o Options) *stats.Table {
	apps := o.apps()
	type group struct {
		org  cache.Organization
		name string
	}
	var groups []group
	var jobs []Job
	for _, org := range orgs {
		for _, sv := range sensitivityVariants(org) {
			groups = append(groups, group{org, sv.Name})
			for _, name := range apps {
				jobs = append(jobs, Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: Variant{Cfg: sv.Cfg}})
			}
		}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Figure 9: sensitivity to hardware parameters (geomeans)",
		"LLC", "variant", "net red %", "exec red %")
	for gi, g := range groups {
		net, exec := geomeanReds(ms[gi*len(apps) : (gi+1)*len(apps)])
		o.logf("  %v/%s: net=%.1f exec=%.1f", g.org, g.name, net, exec)
		t.AddRowf(g.org.String(), g.name, net, exec)
	}
	return t
}

// Fig10 reproduces the region-count (10a/10b) and iteration-set-size
// (10c/10d) sensitivity studies.
func Fig10(o Options) *stats.Table {
	apps := o.apps()
	grids := []struct {
		label  string
		rx, ry int
	}{
		{"4 (3x3)", 2, 2}, {"6 (2x3)", 3, 2}, {"9 (2x2)", 3, 3}, {"18 (2x1)", 3, 6}, {"36 (1x1)", 6, 6},
	}
	fracs := []float64{0.001, 0.0025, 0.005, 0.0075, 0.01, 0.02}

	type group struct {
		org          cache.Organization
		sweep, label string
	}
	var groups []group
	var jobs []Job
	addGroup := func(org cache.Organization, sweep, label string, cfg sim.Config) {
		groups = append(groups, group{org, sweep, label})
		for _, name := range apps {
			jobs = append(jobs, Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: Variant{Cfg: cfg}})
		}
	}
	for _, org := range orgs {
		for _, g := range grids {
			cfg := sim.DefaultConfig()
			cfg.LLCOrg = org
			cfg.Mesh = topology.MustNew(6, 6, g.rx, g.ry, topology.MCCorners)
			addGroup(org, "regions", g.label, cfg)
		}
		for _, f := range fracs {
			cfg := sim.DefaultConfig()
			cfg.LLCOrg = org
			cfg.IterSetFrac = f
			addGroup(org, "set size", fmt.Sprintf("%.2f%%", 100*f), cfg)
		}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Figure 10: sensitivity to region count and iteration-set size (geomeans)",
		"LLC", "sweep", "value", "net red %", "exec red %")
	for gi, g := range groups {
		net, exec := geomeanReds(ms[gi*len(apps) : (gi+1)*len(apps)])
		o.logf("  %v %s=%s: net=%.1f exec=%.1f", g.org, g.sweep, g.label, net, exec)
		t.AddRowf(g.org.String(), g.sweep, g.label, net, exec)
	}
	return t
}

// Fig11 reproduces the address-distribution study: the four (cache-bank
// granularity, memory-bank granularity) combinations. The paper's figure
// lists its fourth combination as a duplicate "(page, page)" — an
// apparent typo; we run the remaining distinct combination
// (page, cacheline) in its place and note it.
func Fig11(o Options) *stats.Table {
	apps := o.apps()
	combos := []struct {
		name             string
		bankGran, mcGran mem.Granularity
	}{
		{"(cacheline, page)", mem.GranCacheLine, mem.GranPage}, // default
		{"(cacheline, cacheline)", mem.GranCacheLine, mem.GranCacheLine},
		{"(page, page)", mem.GranPage, mem.GranPage},
		{"(page, cacheline)", mem.GranPage, mem.GranCacheLine},
	}
	var jobs []Job
	for _, cb := range combos {
		for _, org := range orgs {
			cfg := sim.DefaultConfig()
			cfg.LLCOrg = org
			cfg.BankGran = cb.bankGran
			cfg.MCGran = cb.mcGran
			for _, name := range apps {
				jobs = append(jobs, Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: Variant{Cfg: cfg}})
			}
		}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Figure 11: (cache-bank gran, memory-bank gran) combinations — exec-time improvement (geomeans)",
		"combo", "private %", "shared %")
	for ci, cb := range combos {
		cells := []any{cb.name}
		for oi, org := range orgs {
			start := (ci*len(orgs) + oi) * len(apps)
			var exec []float64
			for _, m := range ms[start : start+len(apps)] {
				exec = append(exec, m.ExecRed())
			}
			cells = append(cells, stats.GeomeanPct(exec))
			o.logf("  %s %v: exec=%.1f", cb.name, org, stats.GeomeanPct(exec))
		}
		t.AddRowf(cells...)
	}
	return t
}

// Fig12 reproduces the DDR-4 study: per-application execution-time
// improvements when the memory system is DDR4-2133.
func Fig12(o Options) *stats.Table {
	apps := o.apps()
	jobs := make([]Job, 0, 2*len(apps))
	for _, name := range apps {
		for _, org := range orgs {
			cfg := sim.DefaultConfig()
			cfg.LLCOrg = org
			cfg.DRAM.Timing = dram.DDR4()
			jobs = append(jobs, Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: Variant{Cfg: cfg}})
		}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Figure 12: execution-time improvement with DDR-4 (%)",
		"benchmark", "private", "shared")
	var priv, shr []float64
	for i, name := range apps {
		pr, sh := ms[2*i].ExecRed(), ms[2*i+1].ExecRed()
		priv = append(priv, pr)
		shr = append(shr, sh)
		t.AddRowf(name, pr, sh)
	}
	t.AddRowf("GEOMEAN", stats.GeomeanPct(priv), stats.GeomeanPct(shr))
	return t
}

// Fig13 compares against the DO data-layout scheme [22] on the six
// applications it supports: LA alone, DO alone, and LA applied on top of
// DO's layout. The LA job's own default-mapping measurement is the
// comparison base for all three columns (and dedups with Figures 7/8/14
// when a runner is shared).
func Fig13(o Options) *stats.Table {
	apps := o.Apps
	if apps == nil {
		apps = workloads.DOSubset()
	}
	var jobs []Job
	for _, org := range orgs {
		for _, name := range apps {
			cfg := sim.DefaultConfig()
			cfg.LLCOrg = org

			// DO alone: relocated layout, default mapping. The map is
			// built here, at declaration time; both DO jobs share the
			// object, so they key to the same AddrMap identity.
			p := workloads.MustNew(name, o.scale())
			doMap := baselines.BuildDO(p, cfg.Mesh, sim.AddrMapFor(cfg), cfg.PageSize, cfg.IterSetFrac)
			doCfg := cfg
			doCfg.AddrMap = doMap

			jobs = append(jobs,
				Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: Variant{Cfg: cfg}},
				Job{Kind: KindBaseline, App: name, Scale: o.scale(), Variant: Variant{Cfg: doCfg}},
				Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: Variant{Cfg: doCfg}},
			)
		}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Figure 13: LA vs data-layout optimization (exec-time improvement %)",
		"LLC", "benchmark", "LA", "DO", "LA+DO")
	i := 0
	for _, org := range orgs {
		for _, name := range apps {
			la, doBase, lado := ms[3*i], ms[3*i+1], ms[3*i+2]
			i++
			def := float64(la.DefCycles)
			laRed := la.ExecRed()
			doRed := stats.PctReduction(def, float64(doBase.DefCycles))
			// LA+DO improvement is measured against the plain default.
			ladoRed := stats.PctReduction(def, float64(lado.LACycles))
			o.logf("  %v %-10s LA=%.1f DO=%.1f LA+DO=%.1f", org, name, laRed, doRed, ladoRed)
			t.AddRowf(org.String(), name, laRed, doRed, ladoRed)
		}
	}
	return t
}

// Fig14 compares against the hardware/OS application-to-core placement of
// Das et al. [16].
func Fig14(o Options) *stats.Table {
	apps := o.apps()
	var jobs []Job
	for _, name := range apps {
		for _, org := range orgs {
			v := DefaultVariant(org)
			jobs = append(jobs,
				Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: v},
				Job{Kind: KindHW, App: name, Scale: o.scale(), Variant: v},
			)
		}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Figure 14: compiler (LA) vs hardware-based placement (exec-time improvement %)",
		"benchmark", "LA priv", "LA shared", "HW priv", "HW shared")
	for i, name := range apps {
		var laRow, hwRow [2]float64
		for oi := range orgs {
			la := ms[4*i+2*oi]
			hw := ms[4*i+2*oi+1]
			laRow[oi] = la.ExecRed()
			hwRow[oi] = stats.PctReduction(float64(la.DefCycles), float64(hw.LACycles))
		}
		t.AddRowf(name, laRow[0], laRow[1], hwRow[0], hwRow[1])
	}
	return t
}

// Fig15 reproduces the optimality study: perfect MAI/CAI and perfect
// cache-miss estimation.
func Fig15(o Options) *stats.Table {
	apps := o.apps()
	jobs := make([]Job, 0, 2*len(apps))
	for _, name := range apps {
		for _, org := range orgs {
			v := DefaultVariant(org)
			v.Oracle = true
			jobs = append(jobs, Job{Kind: KindApp, App: name, Scale: o.scale(), Variant: v})
		}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Figure 15: exec-time improvement with perfect MAI/CAI/CME (%)",
		"benchmark", "private", "shared")
	var priv, shr []float64
	for i, name := range apps {
		pr, sh := ms[2*i].ExecRed(), ms[2*i+1].ExecRed()
		priv = append(priv, pr)
		shr = append(shr, sh)
		t.AddRowf(name, pr, sh)
	}
	t.AddRowf("GEOMEAN", stats.GeomeanPct(priv), stats.GeomeanPct(shr))
	return t
}
