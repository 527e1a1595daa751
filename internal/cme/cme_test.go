package cme

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/lang"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/topology"
)

func testConfig(org cache.Organization, acc float64) Config {
	mesh := topology.Default6x6()
	return Config{
		Mesh:        mesh,
		Org:         org,
		AMap:        mem.NewInterleaved(2048, 64, 4, mesh.NumNodes()),
		L1Line:      32,
		ModelBytes:  64 << 10,
		ModelLine:   64,
		ModelWays:   16,
		IterSetFrac: 0.0025,
		Accuracy:    acc,
	}
}

func streamProgram(elems int64) (*loop.Program, *loop.Nest) {
	a := &loop.Array{Name: "A", ElemSize: 8, Elems: elems}
	n := &loop.Nest{
		Name:   "s",
		Bounds: []int64{elems},
		Refs:   []loop.Ref{{Array: a, Kind: loop.Read, Index: loop.Affine{Coeffs: []int64{1}}}},
	}
	p := &loop.Program{Name: "t", Arrays: []*loop.Array{a}, Nests: []*loop.Nest{n}, Regular: true}
	p.Layout(0, 2048)
	return p, n
}

func TestColdStreamPredictsMisses(t *testing.T) {
	e := New(testConfig(cache.Private, 1))
	_, n := streamProgram(1 << 16) // 512KB >> 64KB model: all cold/capacity
	sets := e.EstimateNest(n)
	if len(sets) == 0 {
		t.Fatal("no sets")
	}
	// A stride-1 stream after the L1 filter alternates miss/hit at the
	// 64B model-line granularity: α ≈ 0.5 per set, never high.
	var mean float64
	for _, s := range sets {
		mean += s.Alpha
		if s.MAI.Sum() == 0 {
			t.Fatal("streaming sets must have miss affinity")
		}
	}
	mean /= float64(len(sets))
	if mean < 0.3 || mean > 0.7 {
		t.Errorf("cold stream mean alpha = %.2f, want ~0.5", mean)
	}
}

func TestWarmRereadPredictsHits(t *testing.T) {
	e := New(testConfig(cache.Private, 1))
	_, n := streamProgram(4096) // 32KB: fits the model cache
	e.EstimateNest(n)           // cold pass warms the model
	sets := e.EstimateNest(n)   // second pass: hits
	for k, s := range sets {
		if s.Alpha < 0.9 {
			t.Fatalf("set %d of warm re-read predicted alpha %.2f", k, s.Alpha)
		}
	}
}

func TestMAIFollowsAddressMap(t *testing.T) {
	cfg := testConfig(cache.Private, 1)
	e := New(cfg)
	_, n := streamProgram(1 << 16)
	sets := e.EstimateNest(n)
	iterSets := n.IterationSets(cfg.IterSetFrac)
	for k, s := range sets {
		want := make([]float64, 4)
		for flat := iterSets[k].Lo; flat < iterSets[k].Hi; flat++ {
			want[cfg.AMap.MC(n.Refs[0].Array.AddrOf(flat))]++
		}
		wi := 0
		for i := range want {
			if want[i] > want[wi] {
				wi = i
			}
		}
		if got := s.MAI[wi]; got < 0.2 {
			t.Fatalf("set %d: dominant MC %d got weight %.2f", k, wi, got)
		}
	}
}

func TestSharedProducesCAI(t *testing.T) {
	e := New(testConfig(cache.SharedSNUCA, 1))
	_, n := streamProgram(4096)
	e.EstimateNest(n)
	sets := e.EstimateNest(n) // warm: hits populate CAI
	var caiWeight float64
	for _, s := range sets {
		if len(s.CAI) != 9 {
			t.Fatalf("CAI length = %d, want 9", len(s.CAI))
		}
		caiWeight += s.CAI.Sum()
	}
	if caiWeight == 0 {
		t.Error("warm shared estimation should produce CAI mass")
	}
}

func TestPrivateHasNoCAI(t *testing.T) {
	e := New(testConfig(cache.Private, 1))
	_, n := streamProgram(4096)
	for _, s := range e.EstimateNest(n) {
		if s.CAI != nil {
			t.Fatal("private estimation must not build CAI")
		}
	}
}

func TestAccuracyNoiseChangesPredictions(t *testing.T) {
	_, n1 := streamProgram(1 << 15)
	_, n2 := streamProgram(1 << 15)
	perfect := New(testConfig(cache.Private, 1)).EstimateNest(n1)
	noisy := New(testConfig(cache.Private, 0.8)).EstimateNest(n2)
	diff := 0.0
	for k := range perfect {
		diff += math.Abs(perfect[k].Alpha - noisy[k].Alpha)
	}
	if diff == 0 {
		t.Error("80% accuracy should perturb predictions")
	}
}

func TestNoiseIsDeterministic(t *testing.T) {
	_, n1 := streamProgram(1 << 14)
	_, n2 := streamProgram(1 << 14)
	a := New(testConfig(cache.Private, 0.8)).EstimateNest(n1)
	b := New(testConfig(cache.Private, 0.8)).EstimateNest(n2)
	for k := range a {
		if a[k].Alpha != b[k].Alpha {
			t.Fatalf("set %d: noise not deterministic (%.3f vs %.3f)", k, a[k].Alpha, b[k].Alpha)
		}
	}
}

func TestIrregularRefsSkipped(t *testing.T) {
	a := &loop.Array{Name: "A", ElemSize: 8, Elems: 1024}
	n := &loop.Nest{
		Name:   "irr",
		Bounds: []int64{1024},
		Refs: []loop.Ref{
			{Array: a, Kind: loop.Read, Irregular: true, IndexArray: []int64{1, 2, 3}},
		},
	}
	sets := New(testConfig(cache.Private, 1)).EstimateNest(n)
	for _, s := range sets {
		if s.MAI.Sum() != 0 || s.Alpha != 0 {
			t.Fatal("irregular-only nests should produce empty estimates")
		}
	}
}

func TestAccuracyForBand(t *testing.T) {
	// Per-application accuracies must stay in the paper's 76–93% band
	// and be deterministic.
	f := func(nameBytes [8]byte) bool {
		name := string(nameBytes[:])
		a := AccuracyFor(name)
		return a >= 0.76 && a <= 0.93 && a == AccuracyFor(name)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Distinct apps should (almost always) differ.
	if AccuracyFor("moldyn") == AccuracyFor("swim") {
		t.Error("accuracies should vary per application")
	}
}

func TestResetClearsModel(t *testing.T) {
	e := New(testConfig(cache.Private, 1))
	_, n := streamProgram(4096)
	e.EstimateNest(n)
	warm := e.EstimateNest(n)
	e.Reset()
	cold := e.EstimateNest(n)
	meanOf := func(sets []affinity.SetAffinity) float64 {
		var m float64
		for _, s := range sets {
			m += s.Alpha
		}
		return m / float64(len(sets))
	}
	if meanOf(cold) >= meanOf(warm)-0.2 {
		t.Fatalf("Reset should clear the capacity model: cold=%.2f warm=%.2f",
			meanOf(cold), meanOf(warm))
	}
}

// referenceEstimator is the estimator's walk before its own capacity
// model and stepped addresses: cache.Cache as the model, Nest.Unflatten
// and Ref.Addr per reference, the floating-point misclassification
// test and Mesh.RegionOf per shared-LLC hit. The estimator must agree
// with it bit for bit.
type referenceEstimator struct {
	cfg   Config
	model *cache.Cache
	ctr   uint64
}

func newReference(cfg Config) *referenceEstimator {
	e := New(cfg) // the same defaults
	return &referenceEstimator{
		cfg:   e.cfg,
		model: cache.MustNew(e.cfg.ModelBytes, e.cfg.ModelLine, e.cfg.ModelWays),
	}
}

func (e *referenceEstimator) noisy(hit bool) bool {
	if e.cfg.Accuracy >= 1 {
		return hit
	}
	e.ctr++
	h := Mix64(e.cfg.Seed ^ e.ctr)
	u := float64(h>>11) / (1 << 53)
	if u >= e.cfg.Accuracy {
		return !hit
	}
	return hit
}

func (e *referenceEstimator) estimateNest(n *loop.Nest) []affinity.SetAffinity {
	sets := n.IterationSets(e.cfg.IterSetFrac)
	out := make([]affinity.SetAffinity, len(sets))
	nmc := e.cfg.AMap.NumMCs()
	nreg := e.cfg.Mesh.NumRegions()
	shared := e.cfg.Org == cache.SharedSNUCA
	lastL1 := make([]mem.Addr, len(n.Refs))
	seen := make([]bool, len(n.Refs))
	var iv []int64
	for k, set := range sets {
		mai := affinity.NewBuilder(nmc)
		var cai *affinity.Builder
		if shared {
			cai = affinity.NewBuilder(nreg)
		}
		var hits, total float64
		for flat := set.Lo; flat < set.Hi; flat++ {
			iv = n.Unflatten(iv, flat)
			for r := range n.Refs {
				ref := &n.Refs[r]
				if ref.Irregular {
					continue
				}
				addr := ref.Addr(iv, flat)
				l1line := addr / mem.Addr(e.cfg.L1Line)
				if seen[r] && l1line == lastL1[r] {
					continue
				}
				seen[r] = true
				lastL1[r] = l1line
				total++
				if e.noisy(e.model.Access(addr)) {
					hits++
					if shared {
						bank := e.cfg.AMap.HomeBank(addr) % e.cfg.Mesh.NumNodes()
						cai.AddOne(int(e.cfg.Mesh.RegionOf(topology.NodeID(bank))))
					}
				} else {
					mai.AddOne(e.cfg.AMap.MC(addr))
				}
			}
		}
		sa := affinity.SetAffinity{MAI: mai.Vector(), Alpha: affinity.Alpha(hits, total), Weight: set.Len()}
		if shared {
			sa.CAI = cai.Vector()
		}
		out[k] = sa
	}
	return out
}

func (e *referenceEstimator) reset() {
	e.model.Reset()
	e.ctr = 0
}

// sameAffinities reports the first set whose predictions differ in any
// bit, or -1.
func sameAffinities(got, want []affinity.SetAffinity) int {
	if len(got) != len(want) {
		return 0
	}
	same := func(a, b affinity.Vector) bool {
		if len(a) != len(b) || (a == nil) != (b == nil) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for k := range want {
		g, w := got[k], want[k]
		if !same(g.MAI, w.MAI) || !same(g.CAI, w.CAI) ||
			math.Float64bits(g.Alpha) != math.Float64bits(w.Alpha) || g.Weight != w.Weight {
			return k
		}
	}
	return -1
}

// randomProgram builds nests over a few arrays with random depth,
// bounds, affine subscripts (unit, line and page strides, negative
// coefficients, offsets that wrap) and the odd irregular reference.
func randomProgram(rng *rand.Rand) *loop.Program {
	p := &loop.Program{Name: "random", Regular: true}
	for a := 0; a < 1+rng.Intn(3); a++ {
		p.Arrays = append(p.Arrays, &loop.Array{
			Name:     fmt.Sprintf("A%d", a),
			ElemSize: []int{4, 8, 8, 16}[rng.Intn(4)],
			Elems:    1 + rng.Int63n(1<<18),
		})
	}
	for ni := 0; ni < 1+rng.Intn(3); ni++ {
		n := &loop.Nest{Name: fmt.Sprintf("n%d", ni)}
		total := int64(1)
		for d := 0; d < 1+rng.Intn(3); d++ {
			b := 1 + rng.Int63n(96)
			if d == 0 {
				b = 1 + rng.Int63n(4000)
			}
			if total*b > 12000 {
				b = 1
			}
			total *= b
			n.Bounds = append(n.Bounds, b)
		}
		for r := 0; r < 1+rng.Intn(4); r++ {
			ref := loop.Ref{Array: p.Arrays[rng.Intn(len(p.Arrays))], Kind: loop.RefKind(rng.Intn(2))}
			if rng.Intn(8) == 0 {
				ref.Irregular = true
				ref.IndexArray = []int64{3, 1, 4, 1, 5, 9, 2, 6}
			} else {
				ref.Index.Const = rng.Int63n(1<<12) - 1<<10
				for range n.Bounds {
					c := []int64{0, 1, 1, 2, -1, 8, 64, 512, -3}[rng.Intn(9)]
					ref.Index.Coeffs = append(ref.Index.Coeffs, c)
				}
			}
			n.Refs = append(n.Refs, ref)
		}
		p.Nests = append(p.Nests, n)
	}
	p.Layout(0, 2048)
	return p
}

// TestEstimateMatchesReference compares the estimator with the
// reference walk over random programs and configurations: both LLC
// organizations, two meshes, small and non-power-of-two capacity
// models, L1 lines that are not powers of two, accuracies from oracle
// to 0.3, the model warm across nests and a Reset between programs.
func TestEstimateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	meshes := []*topology.Mesh{topology.Default6x6(), topology.MustNew(8, 8, 4, 4, topology.MCCorners)}
	geoms := [][3]int{{64 << 10, 64, 16}, {8 << 10, 64, 4}, {48 * 5 * 3, 48, 3}, {0, 0, 0}}
	for trial := 0; trial < 100; trial++ {
		mesh := meshes[rng.Intn(len(meshes))]
		g := geoms[rng.Intn(len(geoms))]
		cfg := Config{
			Mesh:        mesh,
			Org:         []cache.Organization{cache.Private, cache.SharedSNUCA}[rng.Intn(2)],
			AMap:        mem.NewInterleaved(2048, 64, mesh.NumMCs(), mesh.NumNodes()),
			L1Line:      []int{32, 24, 64}[rng.Intn(3)],
			ModelBytes:  g[0],
			ModelLine:   g[1],
			ModelWays:   g[2],
			IterSetFrac: []float64{0.0025, 0.01, 0.1}[rng.Intn(3)],
			Accuracy:    []float64{1, 0.8, AccuracyFor("random"), 0.3, 0}[rng.Intn(5)],
			Seed:        uint64(rng.Intn(3)),
		}
		e, ref := New(cfg), newReference(cfg)
		for pass := 0; pass < 2; pass++ {
			p := randomProgram(rng)
			for ni, n := range p.Nests {
				if k := sameAffinities(e.EstimateNest(n), ref.estimateNest(n)); k >= 0 {
					t.Fatalf("trial %d pass %d nest %d (%+v, bounds %v): set %d differs from the reference walk",
						trial, pass, ni, cfg, n.Bounds, k)
				}
			}
			e.Reset()
			ref.reset()
		}
	}
}

// TestHugeArrayBoundedMemory walks a program whose array spans 2^53
// bytes, far past the residency cap, read at a 2^33-byte stride beside
// a unit-stride read and a second array past the cap: the predictions
// equal the reference walk's (every line past the cap takes the scan
// path) and the estimator allocates no more than the capped bitmap and
// the fixed model.
func TestHugeArrayBoundedMemory(t *testing.T) {
	src := "param N = 1125899906842624\narray A[N]\narray B[4096]\n" +
		"parallel for i = 0..4096 work 4 {\n  B[i] = A[1073741824*i] + A[i] + A[N - 64*i]\n}\n"
	for _, org := range []cache.Organization{cache.Private, cache.SharedSNUCA} {
		cfg := testConfig(org, 0.85)
		cfg.ModelBytes = 512 << 10
		p, err := lang.Parse(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Layout(0, 2048)
		want := newReference(cfg).estimateNest(p.Nests[0])

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := New(cfg)
		got := e.EstimateNest(p.Nests[0])
		runtime.ReadMemStats(&after)

		if k := sameAffinities(got, want); k >= 0 {
			t.Fatalf("%v: set %d differs from the reference walk", org, k)
		}
		if lines := uint64(len(e.model.resident)) * 64; lines != maxResidentLines {
			t.Errorf("%v: bitmap covers %d lines, want the cap %d", org, lines, maxResidentLines)
		}
		const budget = 2 * maxResidentLines / 8 // the bitmap's bytes, twice
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > budget {
			t.Errorf("%v: estimating allocated %d bytes, want at most %d", org, alloc, budget)
		}
	}
}

// TestKeepThresholdMatchesFloatTest checks the integer misclassification
// threshold against the floating-point test it replaces at the draws
// around it, where a random walk would almost never land: accuracies
// whose scaled value is and is not an integer, a subnormal, and the
// float64 neighbours of a few band values.
func TestKeepThresholdMatchesFloatTest(t *testing.T) {
	accs := []float64{0.5, 0.8, 0.25 + 0x1p-54, 0.3, 0.93, 1 - 0x1p-53, 5e-324, 1e-300, AccuracyFor("moldyn")}
	for _, a := range []float64{0.76, 0.85, 0.99} {
		accs = append(accs, math.Nextafter(a, 0), a, math.Nextafter(a, 1))
	}
	for _, acc := range accs {
		e := New(testConfig(cache.Private, acc))
		for _, x := range []uint64{e.keep - 2, e.keep - 1, e.keep, e.keep + 1} {
			if x >= 1<<53 {
				continue
			}
			kept := x < e.keep
			floatKept := !(float64(x)/(1<<53) >= acc)
			if kept != floatKept {
				t.Errorf("accuracy %v: draw %d kept=%v, float test says %v", acc, x, kept, floatKept)
			}
		}
	}
}
