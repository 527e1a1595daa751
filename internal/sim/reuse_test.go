package sim_test

import (
	"reflect"
	"testing"

	"locmap/internal/cache"
	"locmap/internal/knl"
	"locmap/internal/loop"
	"locmap/internal/sim"
	"locmap/internal/topology"
	"locmap/internal/workloads"
)

// observed is everything a run leaves observable: the per-iteration
// results (cycles, network latency, every set's observations) and the
// machine's aggregate, per-leg and per-node counters afterwards.
type observed struct {
	Results []sim.ProgramResult
	Stats   sim.Stats
	Legs    []sim.LegSummary
	Traffic []float64
}

func observe(sys *sim.System, res []sim.ProgramResult) observed {
	return observed{Results: res, Stats: sys.Stats(), Legs: sys.LegSummaries(), Traffic: sys.NodeTraffic()}
}

// rotated is the default schedule with every set moved by `by` cores:
// a non-default schedule that sends the same traffic along other
// routes.
func rotated(sys *sim.System, p *loop.Program, by int) *sim.Schedule {
	sched := sys.DefaultScheduleFor(p)
	nodes := sys.Mesh().NumNodes()
	for _, a := range sched.Assign {
		for k, c := range a.Core {
			a.Core[k] = topology.NodeID((int(c) + by) % nodes)
			a.Region[k] = sys.Mesh().RegionOf(a.Core[k])
		}
	}
	return sched
}

// runAll runs p once per schedule, in order, on sys.
func runAll(sys *sim.System, p *loop.Program, scheds ...*sim.Schedule) []sim.ProgramResult {
	out := make([]sim.ProgramResult, 0, len(scheds))
	for _, s := range scheds {
		out = append(out, sys.RunProgram(p, s))
	}
	return out
}

// TestResetMatchesNew: a machine Reset after running equals a freshly
// built one — results, statistics, per-leg and per-node traffic — so
// one System can serve a baseline run and then a location-aware run.
// It covers both LLC organizations of the Table 4 machine and KNL's
// SNC-4 mode, whose address map carries first-touch page placement.
func TestResetMatchesNew(t *testing.T) {
	p := workloads.MustNew("mxm", 1)
	priv := sim.DefaultConfig()
	shared := sim.DefaultConfig()
	shared.LLCOrg = cache.SharedSNUCA
	snc4 := knl.Config(knl.SNC4)
	snc4.LLCOrg = cache.SharedSNUCA
	// First touch writes the shared address map, so it runs before any
	// machine over that map simulates.
	snc4.AddrMap.(*knl.Map).FirstTouch(p, sim.New(snc4).DefaultScheduleFor(p), snc4.IterSetFrac)
	for _, nc := range []struct {
		name string
		cfg  sim.Config
	}{{"private", priv}, {"shared", shared}, {"knl-snc4", snc4}} {
		cfg := nc.cfg
		t.Run(nc.name, func(t *testing.T) {
			used := sim.New(cfg)
			def := used.DefaultScheduleFor(p)
			runAll(used, p, rotated(used, p, 5), def)
			used.Reset()
			if st := used.Stats(); st != (sim.Stats{}) {
				t.Fatalf("stats after Reset = %+v, want zero", st)
			}
			got := observe(used, runAll(used, p, rotated(used, p, 11), def))

			fresh := sim.New(cfg)
			want := observe(fresh, runAll(fresh, p, rotated(fresh, p, 11), def))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reset machine diverged from a fresh one: cycles %d vs %d, stats %+v vs %+v",
					sim.TotalCycles(got.Results), sim.TotalCycles(want.Results), got.Stats, want.Stats)
			}
		})
	}
}
