package experiments

import (
	"locmap/internal/cache"
	"locmap/internal/core"
	"locmap/internal/inspector"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/sim"
	"locmap/internal/stats"
	"locmap/internal/tenancy"
	"locmap/internal/topology"
	"locmap/internal/workloads"
)

// DefaultMix is the 4-application multiprogrammed mix used by the §5
// "multiple multi-threaded applications" study: two memory-bound
// irregular codes, one stencil code and one butterfly code.
func DefaultMix() []string { return []string{"moldyn", "swim", "hpccg", "fft"} }

// subsetDefault deals a nest's sets round-robin over an application's own
// cores — the default mapping restricted to its partition.
func subsetDefault(mesh *topology.Mesh, numSets int, cores []topology.NodeID) *core.Assignment {
	a := &core.Assignment{
		Region: make([]topology.RegionID, numSets),
		Core:   make([]topology.NodeID, numSets),
	}
	for k := 0; k < numSets; k++ {
		c := cores[k%len(cores)]
		a.Core[k] = c
		a.Region[k] = mesh.RegionOf(c)
	}
	return a
}

// multiTask is one application's work in a multiprogrammed run.
type multiTask struct {
	p     *loop.Program
	cores []topology.NodeID
	sched *sim.Schedule
}

// runMulti executes the tasks concurrently: applications proceed
// nest-by-nest on their own core partitions (own barriers), sharing the
// NoC, the LLC and the memory controllers. It returns each application's
// total cycles and the per-application observations of the first timing
// iteration.
func runMulti(sys *sim.System, tasks []multiTask) (cycles []int64, firstObs [][][]sim.SetObs) {
	cycles = make([]int64, len(tasks))
	firstObs = make([][][]sim.SetObs, len(tasks))
	maxTI := 1
	for i, tk := range tasks {
		firstObs[i] = make([][]sim.SetObs, len(tk.p.Nests))
		if tk.p.TimingIters > maxTI {
			maxTI = tk.p.TimingIters
		}
	}
	maxNests := 0
	for _, tk := range tasks {
		if len(tk.p.Nests) > maxNests {
			maxNests = len(tk.p.Nests)
		}
	}
	// Round-robin nests across applications so their traffic genuinely
	// overlaps in simulated time.
	for ti := 0; ti < maxTI; ti++ {
		for j := 0; j < maxNests; j++ {
			for i, tk := range tasks {
				if ti >= tk.p.TimingIters || j >= len(tk.p.Nests) {
					continue
				}
				n := tk.p.Nests[j]
				sets := sys.Sets(n)
				res := sys.RunNestOn(n, sets, tk.sched.Assign[j], tk.cores)
				cycles[i] += res.Cycles
				if ti == 0 {
					firstObs[i][j] = res.Obs
				}
			}
		}
	}
	return cycles, firstObs
}

// mixSlots is the number of strided core partitions the multiprogrammed
// study splits the chip into, and so the largest mix it co-runs.
const mixSlots = 4

// runMultiJob co-runs the mix on cfg's machine twice, each application
// on its own strided core partition with a disjoint address space:
// first under each application's default mapping (also the profile
// source), then under the location-aware mapping derived from that
// profile and clamped to the application's partition.
func runMultiJob(mix []string, scale int, cfg sim.Config) AppMetrics {
	mesh := cfg.Mesh
	// Application i owns cores {i, i+4, i+8, ...}: every partition
	// spans all regions of the chip, as a scheduler typically spreads
	// co-running applications' threads, which leaves the mapper room to
	// place each application's iteration sets near their data within
	// its own cores.
	quads := tenancy.StridedPartition(mesh, mixSlots)
	shared := cfg.LLCOrg == cache.SharedSNUCA

	// Build the tasks with disjoint address spaces.
	mkTasks := func() []multiTask {
		var tasks []multiTask
		var base uint64
		for i, name := range mix {
			p := workloads.MustNew(name, scale)
			end := p.Layout(mem.Addr(base), cfg.PageSize)
			base = uint64(end) + 1<<24
			sched := &sim.Schedule{Assign: make([]*core.Assignment, len(p.Nests))}
			for j, n := range p.Nests {
				sched.Assign[j] = subsetDefault(mesh, len(n.IterationSets(cfg.IterSetFrac)), quads[i])
			}
			tasks = append(tasks, multiTask{p: p, cores: quads[i], sched: sched})
		}
		return tasks
	}

	defCycles, obs := runMulti(sim.New(cfg), mkTasks())

	// Optimized run: per-app Algorithm 1/2 clamped to its partition.
	optTasks := mkTasks()
	mapper := core.NewMapper(core.Config{Mesh: mesh})
	for i := range optTasks {
		p := optTasks[i].p
		for j, n := range p.Nests {
			sets := n.IterationSets(cfg.IterSetFrac)
			sa := inspector.AffinitiesFromObs(obs[i][j], sets, shared)
			var a *core.Assignment
			if shared {
				a = mapper.MapShared(sa)
			} else {
				a = mapper.MapPrivate(sa)
			}
			optTasks[i].sched.Assign[j] = tenancy.ClampToCores(mesh, a, optTasks[i].cores)
		}
	}
	optCycles, _ := runMulti(sim.New(cfg), optTasks)

	var m AppMetrics
	copy(m.MixDef[:], defCycles)
	copy(m.MixLA[:], optCycles)
	return m
}

// MultiProg reproduces the §5 multiprogrammed study: four multithreaded
// applications run concurrently, each on its own 9-core partition; the
// location-aware mapping is applied per application within its partition.
// Each LLC organization's pair of co-runs is one KindMulti job.
func MultiProg(o Options) *stats.Table {
	mix := o.Apps
	if mix == nil {
		mix = DefaultMix()
	}
	if len(mix) > mixSlots {
		mix = mix[:mixSlots]
	}
	jobs := make([]Job, len(orgs))
	for i, org := range orgs {
		jobs[i] = Job{Kind: KindMulti, Mix: mix, Scale: o.scale(), Variant: DefaultVariant(org)}
	}
	ms := o.collect(o.runner(), jobs)

	t := stats.NewTable("Multiprogrammed (4 apps on 9-core partitions) — exec-time improvement (%)",
		"LLC", "benchmark", "improvement")
	for i, org := range orgs {
		var reds []float64
		for k, name := range mix {
			red := ms[i].MixRed(k)
			reds = append(reds, red)
			t.AddRowf(org.String(), name, red)
		}
		t.AddRowf(org.String(), "AVERAGE", stats.Mean(reds))
	}
	return t
}
