package experiments

import (
	"fmt"

	"locmap/internal/baselines"
	"locmap/internal/fingerprint"
	"locmap/internal/inspector"
	"locmap/internal/knl"
	"locmap/internal/sim"
	"locmap/internal/topology"
	"locmap/internal/workloads"
)

// Kind selects what a Job measures.
type Kind int

const (
	// KindApp is the full RunApp evaluation: the default mapping versus
	// the location-aware (or oracle) mapping, plus the ideal-NoC bound
	// when Variant.WithIdeal is set.
	KindApp Kind = iota
	// KindBaseline runs only the default round-robin mapping (and the
	// ideal-NoC bound when Variant.WithIdeal is set) — the Figure 2
	// potential study and the Figure 13 comparison bases. Mapper knobs
	// and Oracle are ignored and excluded from the fingerprint.
	KindBaseline
	// KindHW evaluates the hardware/OS placement of Das et al. [16]
	// (Figure 14). LACycles/LANet hold the HW-schedule measurements;
	// no baseline is run.
	KindHW
	// KindKNL measures one KNL cluster-mode configuration (Figures
	// 16/17): DefCycles holds the measured cycles. The Variant is
	// ignored — the machine comes from knl.Config(KNLMode).
	KindKNL
	// KindMulti co-runs Job.Mix on the Variant's machine (the §5
	// multiprogrammed study): a default co-run, then the location-aware
	// co-run profiled from it. MixDef/MixLA hold each application's
	// cycles. Mapper knobs, Oracle and WithIdeal are ignored.
	KindMulti
)

// Job identifies one simulation: an application at an input scale under
// one machine/mapping configuration. A Job is a pure computation — equal
// fingerprints produce equal results — which is what lets the Runner
// deduplicate concurrent requests and memoize completed ones.
type Job struct {
	Kind    Kind
	App     string
	Scale   int
	Variant Variant

	// KNLMode and KNLOpt select the cluster mode and whether the
	// location-aware schedule is applied (KindKNL only).
	KNLMode knl.Mode
	KNLOpt  bool

	// Mix lists the co-running applications, at most four, in row
	// order (KindMulti only).
	Mix []string
}

func (j Job) scale() int {
	if j.Scale < 1 {
		return 1
	}
	return j.Scale
}

// Fingerprint returns the canonical memo key for the job: a hex SHA-256
// over the kind, the application and scale, and every sim.Config /
// core.Config field that affects the result, in the shared
// fingerprint.Hasher encoding (the same construction behind
// internal/plancache spec keys). Fields a kind does not read are
// excluded, so e.g. baseline jobs that differ only in mapper knobs
// share one key, and a nil Mapper.Mesh fingerprints as Cfg.Mesh —
// exactly what RunApp substitutes. A custom Cfg.AddrMap is keyed by
// pointer identity: distinct map objects never alias, at the cost of
// missing dedup between separately built but identical maps.
func (j Job) Fingerprint() string {
	fp := fingerprint.New()
	writeMesh := func(m *topology.Mesh) {
		if m == nil {
			fp.Int(-1)
			return
		}
		fp.Int(int64(m.Width))
		fp.Int(int64(m.Height))
		fp.Int(int64(m.RegionsX))
		fp.Int(int64(m.RegionsY))
		fp.Bool(m.Wrap)
		fp.Int(int64(m.Placement))
	}

	fp.Int(int64(j.Kind))
	fp.Str(j.App)
	fp.Int(int64(j.scale()))

	if j.Kind == KindKNL {
		fp.Int(int64(j.KNLMode))
		fp.Bool(j.KNLOpt)
		return fp.Sum()
	}

	cfg := j.Variant.Cfg
	writeMesh(cfg.Mesh)
	fp.Int(cfg.NoC.RouterCycles)
	fp.Int(cfg.NoC.LinkCycles)
	fp.Bool(cfg.NoC.Ideal)
	fp.Int(int64(cfg.LLCOrg))
	fp.Int(int64(cfg.L1Size))
	fp.Int(int64(cfg.L1Line))
	fp.Int(int64(cfg.L1Ways))
	fp.Int(int64(cfg.L2PerCore))
	fp.Int(int64(cfg.L2Line))
	fp.Int(int64(cfg.L2Ways))
	fp.Int(cfg.L1Latency)
	fp.Int(cfg.L2Latency)
	fp.Int(int64(cfg.PageSize))
	fp.Str(cfg.DRAM.Timing.Name)
	fp.Int(cfg.DRAM.Timing.RowHit)
	fp.Int(cfg.DRAM.Timing.RowConflict)
	fp.Int(cfg.DRAM.Timing.RowEmpty)
	fp.Int(cfg.DRAM.Timing.Burst)
	fp.Int(int64(cfg.DRAM.MCs))
	fp.Int(int64(cfg.DRAM.BanksPerMC))
	fp.Int(cfg.DRAM.RowBufBytes)
	fp.Int(int64(cfg.DRAM.QueueEntries))
	fp.Int(int64(cfg.MCGran))
	fp.Int(int64(cfg.BankGran))
	fp.Float(cfg.IterSetFrac)
	if cfg.AddrMap != nil {
		fp.Str(fmt.Sprintf("%p", cfg.AddrMap))
	} else {
		fp.Str("")
	}

	if j.Kind == KindApp || j.Kind == KindBaseline {
		fp.Bool(j.Variant.WithIdeal)
	}
	if j.Kind == KindApp {
		fp.Bool(j.Variant.Oracle)
		mc := j.Variant.Mapper
		mesh := mc.Mesh
		if mesh == nil {
			mesh = cfg.Mesh
		}
		writeMesh(mesh)
		fp.Bool(mc.FineMAC)
		fp.Int(int64(mc.Intra))
		fp.Int(mc.Seed)
		fp.Bool(mc.DisableBalance)
	}
	if j.Kind == KindMulti {
		fp.Int(int64(len(j.Mix)))
		for _, name := range j.Mix {
			fp.Str(name)
		}
	}
	return fp.Sum()
}

// runWith executes the job with the region engine's worker count
// injected (0 leaves the job's own Cfg.Workers untouched). Workers is
// deliberately not a fingerprinted field — any count produces
// bit-identical results — so the injection happens here, after the memo
// lookup, and the job must remain a pure function of the fingerprinted
// fields alone.
func (j Job) runWith(workers int) AppMetrics {
	if workers > 0 {
		j.Variant.Cfg.Workers = workers
	}
	switch j.Kind {
	case KindBaseline:
		return runBaselineJob(j.App, j.scale(), j.Variant)
	case KindHW:
		return runHWJob(j.App, j.scale(), j.Variant)
	case KindKNL:
		return AppMetrics{Name: j.App, DefCycles: knlExec(j.App, j.scale(), j.KNLMode, j.KNLOpt, workers)}
	case KindMulti:
		return runMultiJob(j.Mix, j.scale(), j.Variant.Cfg)
	default:
		return RunApp(j.App, j.scale(), j.Variant)
	}
}

// runBaselineJob measures the default mapping alone, plus the
// zero-latency-NoC bound when requested.
func runBaselineJob(name string, scale int, v Variant) AppMetrics {
	p := workloads.MustNew(name, scale)
	m := AppMetrics{Name: name, Regular: p.Regular}
	sysD := sim.New(v.Cfg)
	res := inspector.RunBaseline(sysD, p)
	m.DefCycles = sim.TotalCycles(res)
	m.DefNet = sim.TotalNetLatency(res)
	m.LLCMissRate = sysD.Stats().LLCMissRate()
	if v.WithIdeal {
		icfg := v.Cfg
		icfg.NoC.Ideal = true
		m.IdealCycles = sim.TotalCycles(inspector.RunBaseline(sim.New(icfg), p))
	}
	return m
}

// runHWJob measures the hardware/OS placement baseline: the schedule is
// derived on the same system instance that then executes the timed run,
// as in the original Figure 14 harness.
func runHWJob(name string, scale int, v Variant) AppMetrics {
	p := workloads.MustNew(name, scale)
	m := AppMetrics{Name: name, Regular: p.Regular}
	sysH := sim.New(v.Cfg)
	hwSched := baselines.HWSchedule(sysH, p)
	res := sysH.RunTiming(p, func(int) *sim.Schedule { return hwSched })
	m.LACycles = sim.TotalCycles(res)
	m.LANet = sim.TotalNetLatency(res)
	return m
}
