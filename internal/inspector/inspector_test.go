package inspector

import (
	"fmt"
	"reflect"
	"testing"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/core"
	"locmap/internal/loop"
	"locmap/internal/sim"
)

// irregularProgram builds a small inspector-friendly program: several
// gather nests over a large array through clustered index arrays.
func irregularProgram(nests int) *loop.Program {
	data := &loop.Array{Name: "data", ElemSize: 8, Elems: 1 << 20}
	p := &loop.Program{Name: "irr", Arrays: []*loop.Array{data}, TimingIters: 3}
	const iters = 4096
	state := uint64(99)
	rnd := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for j := 0; j < nests; j++ {
		idxArr := &loop.Array{Name: "idx", ElemSize: 8, Elems: iters}
		out := &loop.Array{Name: "out", ElemSize: 8, Elems: iters}
		p.Arrays = append(p.Arrays, idxArr, out)
		idx := make([]int64, iters)
		var base int64
		for i := range idx {
			if i%64 == 0 {
				base = int64(rnd() % (1 << 20))
			}
			idx[i] = (base + int64(i%64)*4) % (1 << 20)
		}
		p.Nests = append(p.Nests, &loop.Nest{
			Name:       "gather",
			Bounds:     []int64{iters},
			WorkCycles: 40,
			Parallel:   true,
			Refs: []loop.Ref{
				{Array: idxArr, Kind: loop.Read, Index: loop.Affine{Coeffs: []int64{1}}},
				{Array: data, Kind: loop.Read, Irregular: true, IndexArray: idx},
				{Array: out, Kind: loop.Write, Index: loop.Affine{Coeffs: []int64{1}}},
			},
		})
	}
	p.Layout(0, 2048)
	return p
}

func TestRunProducesOptimizedSchedule(t *testing.T) {
	p := irregularProgram(4)
	cfg := sim.DefaultConfig()
	sys := sim.New(cfg)
	mapper := core.NewMapper(core.Config{Mesh: cfg.Mesh})
	r := Run(sys, p, mapper, DefaultOverhead())

	if len(r.Results) != p.TimingIters {
		t.Fatalf("results = %d, want %d", len(r.Results), p.TimingIters)
	}
	if r.Optimized == nil || len(r.Optimized.Assign) != len(p.Nests) {
		t.Fatal("missing optimized schedule")
	}
	if r.OverheadCycles <= 0 {
		t.Error("inspector must charge overhead")
	}
	if r.TotalCycles() != sim.TotalCycles(r.Results)+r.OverheadCycles {
		t.Error("TotalCycles must include overhead")
	}
	// The executor iterations run under the optimized schedule: their
	// network latency should not exceed the inspector iteration's.
	if r.Results[1].NetLatency > r.Results[0].NetLatency {
		t.Errorf("executor net latency %d > inspector %d",
			r.Results[1].NetLatency, r.Results[0].NetLatency)
	}
}

func TestOverheadScalesWithAccesses(t *testing.T) {
	cfg := sim.DefaultConfig()
	mapper := core.NewMapper(core.Config{Mesh: cfg.Mesh})
	small := Run(sim.New(cfg), irregularProgram(2), mapper, DefaultOverhead())
	big := Run(sim.New(cfg), irregularProgram(8), mapper, DefaultOverhead())
	if big.OverheadCycles <= small.OverheadCycles {
		t.Errorf("overhead should grow with program size: %d vs %d",
			small.OverheadCycles, big.OverheadCycles)
	}
}

func TestAffinitiesFromObs(t *testing.T) {
	obs := []sim.SetObs{
		{
			MCMisses:    []float64{2, 1, 1, 0},
			RegionHits:  []float64{0, 1, 0, 2, 0, 0, 0, 1, 0},
			LLCHits:     4,
			LLCAccesses: 8,
		},
	}
	sets := []loop.IterSet{{ID: 0, Lo: 0, Hi: 10}}

	sa := AffinitiesFromObs(obs, sets, true)
	wantMAI := affinity.Vector{0.5, 0.25, 0.25, 0}
	for i := range wantMAI {
		if sa[0].MAI[i] != wantMAI[i] {
			t.Fatalf("MAI = %v", sa[0].MAI)
		}
	}
	if sa[0].CAI[3] != 0.5 || sa[0].CAI[1] != 0.25 {
		t.Fatalf("CAI = %v", sa[0].CAI)
	}
	if sa[0].Alpha != 0.5 {
		t.Errorf("alpha = %v", sa[0].Alpha)
	}
	if sa[0].Weight != 10 {
		t.Errorf("weight = %d", sa[0].Weight)
	}

	// Private variant drops CAI.
	sp := AffinitiesFromObs(obs, sets, false)
	if sp[0].CAI != nil {
		t.Error("private affinities should have no CAI")
	}
}

func TestRunBaselineMatchesDefault(t *testing.T) {
	p := irregularProgram(2)
	cfg := sim.DefaultConfig()
	sysA := sim.New(cfg)
	a := RunBaseline(sysA, p)
	sysB := sim.New(cfg)
	def := sysB.DefaultScheduleFor(p)
	b := sysB.RunTiming(p, func(int) *sim.Schedule { return def })
	if sim.TotalCycles(a) != sim.TotalCycles(b) {
		t.Errorf("baseline mismatch: %d vs %d", sim.TotalCycles(a), sim.TotalCycles(b))
	}
}

func TestSharedRunBuildsCAI(t *testing.T) {
	p := irregularProgram(3)
	cfg := sim.DefaultConfig()
	cfg.LLCOrg = cache.SharedSNUCA
	sys := sim.New(cfg)
	mapper := core.NewMapper(core.Config{Mesh: cfg.Mesh})
	r := Run(sys, p, mapper, DefaultOverhead())
	var mass float64
	for _, sa := range r.PerNest {
		for k := range sa {
			if len(sa[k].CAI) != cfg.Mesh.NumRegions() {
				t.Fatalf("CAI len = %d", len(sa[k].CAI))
			}
			mass += sa[k].CAI.Sum()
		}
	}
	if mass == 0 {
		t.Error("shared inspection should record cache affinity")
	}
}

// TestEvaluateMatchesSeparateMachines: Evaluate answers exactly what
// RunBaseline and Run compute on two fresh machines — baseline results,
// the inspected Result, and the executor machine's statistics — at one
// timing iteration and at three, under both LLC organizations. At one
// iteration it simulates the default schedule once, on sys, which then
// holds a single iteration's traffic; at three the inspected run gets
// its own machine.
func TestEvaluateMatchesSeparateMachines(t *testing.T) {
	for _, org := range []cache.Organization{cache.Private, cache.SharedSNUCA} {
		for _, iters := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/T%d", org, iters), func(t *testing.T) {
				cfg := sim.DefaultConfig()
				cfg.LLCOrg = org
				p := irregularProgram(2)
				p.TimingIters = iters
				mapper := func() *core.Mapper { return core.NewMapper(core.Config{Mesh: cfg.Mesh}) }

				sys := sim.New(cfg)
				base, res, exec := Evaluate(sys, p, mapper(), DefaultOverhead())

				sysD := sim.New(cfg)
				wantBase := RunBaseline(sysD, p)
				sysL := sim.New(cfg)
				wantRes := Run(sysL, p, mapper(), DefaultOverhead())

				if !reflect.DeepEqual(base, wantBase) {
					t.Errorf("baseline: %d cycles, separate machine %d", sim.TotalCycles(base), sim.TotalCycles(wantBase))
				}
				if !reflect.DeepEqual(res, wantRes) {
					t.Errorf("inspected run: %d cycles, separate machine %d", res.TotalCycles(), wantRes.TotalCycles())
				}
				if sys.Stats() != sysD.Stats() || !reflect.DeepEqual(sys.LegSummaries(), sysD.LegSummaries()) {
					t.Errorf("baseline machine stats %+v, separate machine %+v", sys.Stats(), sysD.Stats())
				}
				if exec.Stats() != sysL.Stats() || !reflect.DeepEqual(exec.LegSummaries(), sysL.LegSummaries()) ||
					!reflect.DeepEqual(exec.NodeTraffic(), sysL.NodeTraffic()) {
					t.Errorf("executor machine stats %+v, separate machine %+v", exec.Stats(), sysL.Stats())
				}
				if (exec == sys) != (iters == 1) {
					t.Errorf("T=%d: executor shares the baseline machine = %v", iters, exec == sys)
				}
				if iters == 1 {
					once := sim.New(cfg)
					once.RunProgram(p, once.DefaultScheduleFor(p))
					if sys.Stats() != once.Stats() {
						t.Errorf("T=1 simulated more than one default iteration: %+v, one iteration %+v", sys.Stats(), once.Stats())
					}
				}
			})
		}
	}
}
