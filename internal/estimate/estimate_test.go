package estimate

import (
	"math"
	"reflect"
	"testing"

	"locmap/internal/cache"
	"locmap/internal/compiler"
	"locmap/internal/sim"
	"locmap/internal/topology"
)

const regularSrc = `
param N = 8192
array A[N]
array B[N]
array C[N]
parallel for i = 0..N work 16 {
  A[i] = B[i] + C[i]
}
parallel for i = 0..N work 16 {
  C[i] = A[i]
}
`

const irregularSrc = `
param N = 4096
param M = 65536
array X[M]
array IDX[N]
array OUT[N]
parallel for i = 0..N work 8 {
  OUT[i] = X[IDX[i]]
}
`

// compile mirrors the serving path: compile, bind demo index data,
// validate.
func compile(t *testing.T, src string, opts compiler.Options) *compiler.Result {
	t.Helper()
	res, err := compiler.CompileBound(src, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

func TestSketchExactDistances(t *testing.T) {
	// Rate 1 samples every line, so the sketch degenerates to an exact
	// LRU stack-distance computation.
	s := NewSketch(1, 16)
	if sampled, dist := s.Access(10); !sampled || !math.IsInf(dist, 1) {
		t.Fatalf("first touch: sampled=%v dist=%v, want sampled +Inf", sampled, dist)
	}
	if _, dist := s.Access(10); dist != 0 {
		t.Errorf("immediate reuse: dist = %v, want 0", dist)
	}
	s.Access(11)
	s.Access(12)
	if _, dist := s.Access(10); dist != 2 {
		t.Errorf("reuse after 2 intervening lines: dist = %v, want 2", dist)
	}
	// 10 is MRU again; 11 is now at depth 2.
	if _, dist := s.Access(11); dist != 2 {
		t.Errorf("LRU order after promotion: dist = %v, want 2", dist)
	}
}

func TestSketchScalesDistanceByRate(t *testing.T) {
	// At rate R, a sampled line's stack position among *sampled* lines
	// is scaled by 1/R to estimate the full-stream distance.
	s := NewSketch(0.5, 1024)
	var probe uint64
	// Find two lines that are both sampled.
	var lines []uint64
	for l := uint64(0); len(lines) < 2 && l < 1000; l++ {
		if sampled, _ := s.Access(l); sampled {
			lines = append(lines, l)
		}
	}
	if len(lines) < 2 {
		t.Fatal("no sampled lines in 1000 tries at rate 0.5")
	}
	probe = lines[0]
	// lines[1] was touched after probe, so probe sits at sampled-stack
	// position 1: estimated distance = 1 * (1/0.5) = 2.
	if _, dist := s.Access(probe); dist != 2 {
		t.Errorf("scaled distance = %v, want 2", dist)
	}
}

func TestSketchStackBound(t *testing.T) {
	s := NewSketch(1, 8)
	for l := uint64(0); l < 100; l++ {
		s.Access(l)
	}
	// Line 0 was evicted from the bounded stack long ago: its reuse
	// saturates to +Inf (a miss), not a bogus finite distance.
	if _, dist := s.Access(0); !math.IsInf(dist, 1) {
		t.Errorf("evicted line dist = %v, want +Inf", dist)
	}
	// The most recent line is still resident.
	if _, dist := s.Access(99); math.IsInf(dist, 1) {
		t.Errorf("resident line dist = +Inf, want finite")
	}
}

func TestSketchSamplingRateAndDeterminism(t *testing.T) {
	const n = 1 << 14
	s := NewSketch(1.0/8, 4096)
	for l := uint64(0); l < n; l++ {
		s.Access(l)
	}
	sampled, total := s.Sampled()
	if total != n {
		t.Fatalf("total = %d, want %d", total, n)
	}
	frac := float64(sampled) / float64(total)
	if frac < 0.10 || frac > 0.16 {
		t.Errorf("sampling fraction = %g, want ~1/8", frac)
	}

	// Same stream, fresh sketch: byte-identical verdicts (fixed seed).
	s2 := NewSketch(1.0/8, 4096)
	for l := uint64(0); l < n; l++ {
		s2.Access(l)
	}
	if s3, t3 := s2.Sampled(); s3 != sampled || t3 != total {
		t.Errorf("determinism: (%d,%d) vs (%d,%d)", s3, t3, sampled, total)
	}

	s.Reset()
	if sampled, total := s.Sampled(); sampled != 0 || total != 0 {
		t.Errorf("Reset left counters (%d,%d)", sampled, total)
	}
}

func TestFromResultRegularPrivate(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compile(t, regularSrc, compiler.Options{Cfg: cfg})
	e := New(Config{Cfg: cfg})
	plan := e.FromResult(res)

	if plan.Program == "" || plan.TimingIters < 1 {
		t.Fatalf("bad plan header: %+v", plan)
	}
	if len(plan.Nests) != 2 {
		t.Fatalf("nests = %d, want 2", len(plan.Nests))
	}
	if plan.Alpha < 0 || plan.Alpha >= 1 {
		t.Errorf("alpha = %g, want [0,1)", plan.Alpha)
	}
	if plan.PredictedCycles <= 0 || plan.BaselineCycles <= 0 {
		t.Errorf("non-positive cycles: %+v", plan)
	}
	for i, ne := range plan.Nests {
		if ne.Irregular {
			t.Errorf("nest %d marked irregular", i)
		}
		if ne.Cores != nil {
			t.Errorf("nest %d: regular nest carries a predicted schedule", i)
		}
		if ne.Sets <= 0 || ne.LLCRefs <= 0 || ne.Cycles <= 0 {
			t.Errorf("nest %d: degenerate estimate %+v", i, ne)
		}
		if ne.EtaM < 0 || ne.EtaC != 0 {
			t.Errorf("nest %d: private-LLC etas = (%g, %g)", i, ne.EtaM, ne.EtaC)
		}
	}
	if len(plan.Legs) != len(sim.LegNames) {
		t.Fatalf("legs = %d, want %d", len(plan.Legs), len(sim.LegNames))
	}
	// A private LLC never speaks to remote banks: only the MC legs may
	// carry predicted traffic.
	for _, leg := range plan.Legs {
		switch leg.Leg {
		case sim.LegNames[sim.LegReqToMC], sim.LegNames[sim.LegMemReply]:
			if leg.Packets <= 0 {
				t.Errorf("leg %s: no predicted traffic", leg.Leg)
			}
			if leg.TotalCycles < 0 || leg.AvgCycles < 0 {
				t.Errorf("leg %s: negative cost %+v", leg.Leg, leg)
			}
		default:
			if leg.Packets != 0 {
				t.Errorf("leg %s: %g packets on a private LLC", leg.Leg, leg.Packets)
			}
		}
	}
}

func TestFromResultDeterministic(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compile(t, irregularSrc, compiler.Options{Cfg: cfg})
	p1 := New(Config{Cfg: cfg}).FromResult(res)
	p2 := New(Config{Cfg: cfg}).FromResult(res)
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("two estimators disagree on the same compilation:\n%+v\nvs\n%+v", p1, p2)
	}
}

func TestFromResultIrregularPredictsSchedule(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compile(t, irregularSrc, compiler.Options{Cfg: cfg})
	if !res.NeedsInspector {
		t.Fatal("irregular source should defer to the inspector")
	}
	e := New(Config{Cfg: cfg})
	plan := e.FromResult(res)
	if len(plan.Nests) != 1 {
		t.Fatalf("nests = %d, want 1", len(plan.Nests))
	}
	ne := plan.Nests[0]
	if !ne.Irregular {
		t.Fatal("nest not marked irregular")
	}
	// The estimator predicts the assignment the inspector would only
	// produce at run time.
	if len(ne.Cores) != ne.Sets {
		t.Fatalf("predicted schedule covers %d of %d sets", len(ne.Cores), ne.Sets)
	}
	nodes := cfg.Mesh.NumNodes()
	for k, c := range ne.Cores {
		if c < 0 || c >= nodes {
			t.Fatalf("set %d assigned to core %d outside [0,%d)", k, c, nodes)
		}
	}
	if ne.Alpha < 0 || ne.Alpha > 1 {
		t.Errorf("alpha = %g", ne.Alpha)
	}
}

func TestFromResultSharedLLC(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.LLCOrg = cache.SharedSNUCA
	res := compile(t, regularSrc, compiler.Options{Cfg: cfg})
	e := New(Config{Cfg: cfg})
	plan := e.FromResult(res)

	for i, ne := range plan.Nests {
		if ne.EtaC < 0 {
			t.Errorf("nest %d: negative shared-LLC η_c", i)
		}
	}
	// Shared misses route core→bank→MC→core: the bank legs must carry
	// the predicted miss traffic the private model never sees.
	var bankReq float64
	for _, leg := range plan.Legs {
		if leg.Leg == sim.LegNames[sim.LegReqToBank] {
			bankReq = leg.Packets
		}
	}
	if bankReq <= 0 {
		t.Errorf("shared LLC predicted no core→bank packets")
	}
}

func TestNewPanicsOnNilMesh(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted a nil mesh")
		}
	}()
	New(Config{})
}

func TestFromAffinitiesRemapsEveryNest(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compile(t, regularSrc, compiler.Options{Cfg: cfg})
	affs := New(Config{Cfg: cfg}).Affinities(res)
	if len(affs) != len(res.Plans) {
		t.Fatalf("Affinities returned %d nests, want %d", len(affs), len(res.Plans))
	}
	p1 := New(Config{Cfg: cfg}).FromAffinities(res, affs)
	p2 := New(Config{Cfg: cfg}).FromAffinities(res, affs)
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("FromAffinities not deterministic:\n%+v\nvs\n%+v", p1, p2)
	}
	// Unlike FromResult, the remap path derives a schedule for every
	// nest — the placement search needs the co-optimized mapping, not
	// the one compiled against the base chip.
	for i, ne := range p1.Nests {
		if len(ne.Cores) != ne.Sets {
			t.Errorf("nest %d: remapped schedule covers %d of %d sets", i, len(ne.Cores), ne.Sets)
		}
	}
	if p1.PredictedCycles <= 0 || p1.BaselineCycles <= 0 {
		t.Fatalf("degenerate remapped plan: %+v", p1)
	}
}

func TestFromAffinitiesScoresCandidateMesh(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compile(t, regularSrc, compiler.Options{Cfg: cfg})
	affs := New(Config{Cfg: cfg}).Affinities(res)
	base := New(Config{Cfg: cfg}).FromAffinities(res, affs)

	// A candidate chip with all four MCs bunched on the top edge: the
	// same affinities scored against different distance tables must
	// yield a different predicted cost (bottom-row cores are now far
	// from every controller).
	mesh2, err := cfg.Mesh.WithMCs([]topology.Coord{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Mesh = mesh2
	cand := New(Config{Cfg: cfg2}).FromAffinities(res, affs)
	if cand.PredictedCycles == base.PredictedCycles {
		t.Errorf("bunched-MC candidate scored identically to corner MCs: %d cycles", cand.PredictedCycles)
	}
}

func TestFromAffinitiesLengthMismatchPanics(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compile(t, regularSrc, compiler.Options{Cfg: cfg})
	e := New(Config{Cfg: cfg})
	defer func() {
		if recover() == nil {
			t.Error("FromAffinities accepted a mismatched affinity list")
		}
	}()
	e.FromAffinities(res, nil)
}
