package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"locmap/internal/affinity"
	"locmap/internal/topology"
)

func mapper() *Mapper {
	return NewMapper(Config{Mesh: topology.Default6x6()})
}

func uniformSets(n, mcs int) []affinity.SetAffinity {
	sets := make([]affinity.SetAffinity, n)
	for k := range sets {
		v := make(affinity.Vector, mcs)
		for i := range v {
			v[i] = 1 / float64(mcs)
		}
		sets[k] = affinity.SetAffinity{MAI: v, Weight: 1}
	}
	return sets
}

func TestMapPrivateFollowsAffinity(t *testing.T) {
	m := mapper()
	// One set strongly bound to MC0 (top-left), one to MC2
	// (bottom-right); with balancing disabled each must land in the
	// matching corner region.
	nb := NewMapper(Config{Mesh: topology.Default6x6(), DisableBalance: true})
	sets := []affinity.SetAffinity{
		{MAI: affinity.Vector{1, 0, 0, 0}, Weight: 1},
		{MAI: affinity.Vector{0, 0, 1, 0}, Weight: 1},
	}
	a := nb.MapPrivate(sets)
	if a.Region[0] != 0 {
		t.Errorf("MC0-bound set assigned to R%d, want R1", a.Region[0]+1)
	}
	if a.Region[1] != 8 {
		t.Errorf("MC2-bound set assigned to R%d, want R9", a.Region[1]+1)
	}
	// Core must lie inside the assigned region.
	for k := range sets {
		if m.cfg.Mesh.RegionOf(a.Core[k]) != a.Region[k] {
			t.Errorf("set %d core %d outside region %d", k, a.Core[k], a.Region[k])
		}
	}
}

func TestPaperMAIExamplesLandWhereTable2Says(t *testing.T) {
	nb := NewMapper(Config{Mesh: topology.Default6x6(), DisableBalance: true})
	// MAI (0,0,0.5,0.5) must land in R8 (zero error there).
	a := nb.MapPrivate([]affinity.SetAffinity{{MAI: affinity.Vector{0, 0, 0.5, 0.5}}})
	if a.Region[0] != 7 {
		t.Errorf("assigned R%d, want R8", a.Region[0]+1)
	}
}

func TestLoadBalanceEvensCounts(t *testing.T) {
	m := mapper()
	// 90 sets all bound to MC0 would pile onto R1; balancing must
	// spread them to within one of the 10-set average.
	sets := make([]affinity.SetAffinity, 90)
	for k := range sets {
		sets[k] = affinity.SetAffinity{MAI: affinity.Vector{1, 0, 0, 0}, Weight: 1}
	}
	a := m.MapPrivate(sets)
	counts := a.RegionCounts(9)
	for r, c := range counts {
		if c < 9 || c > 11 {
			t.Errorf("region %d has %d sets, want ~10", r, c)
		}
	}
	if a.Moved == 0 {
		t.Error("balancing should have moved sets")
	}
	if a.FracMoved() <= 0 || a.FracMoved() > 1 {
		t.Errorf("FracMoved = %g", a.FracMoved())
	}
}

func TestLoadBalancePrefersNearbyReceivers(t *testing.T) {
	m := mapper()
	// Half the sets bound to MC0 (top-left), half to MC2 (bottom-
	// right). After balancing to ~10 per region, the MC0-bound sets
	// should still sit closer to MC0 than the MC2-bound ones do, and
	// the total affinity error must beat a round-robin placement.
	mesh := topology.Default6x6()
	sets := make([]affinity.SetAffinity, 90)
	for k := range sets {
		if k < 45 {
			sets[k] = affinity.SetAffinity{MAI: affinity.Vector{1, 0, 0, 0}, Weight: 1}
		} else {
			sets[k] = affinity.SetAffinity{MAI: affinity.Vector{0, 0, 1, 0}, Weight: 1}
		}
	}
	a := m.MapPrivate(sets)
	distTo := func(k int, mc topology.MCID) float64 {
		return float64(mesh.RegionMCDistance(a.Region[k], mc))
	}
	var d0, d2 float64
	for k := 0; k < 45; k++ {
		d0 += distTo(k, 0)
		d2 += distTo(k+45, 0)
	}
	if d0 >= d2 {
		t.Errorf("MC0-bound sets (avg dist %g) should sit nearer MC0 than MC2-bound sets (%g)", d0/45, d2/45)
	}
	macs := m.MAC()
	naive := 0.0
	for k := range sets {
		naive += affinity.Eta(sets[k].MAI, macs[k%9])
	}
	if a.TotalError >= naive {
		t.Errorf("balanced error %g should beat naive %g", a.TotalError, naive)
	}
}

func TestBalanceKeepsAllSetsAssigned(t *testing.T) {
	f := func(seed int64, raw [16]uint8) bool {
		m := NewMapper(Config{Mesh: topology.Default6x6(), Seed: seed})
		sets := make([]affinity.SetAffinity, 0, 64)
		for i := 0; i < 64; i++ {
			v := make(affinity.Vector, 4)
			for j := range v {
				v[j] = float64(raw[(i+j)%16]) + 0.01
			}
			v.Normalize()
			sets = append(sets, affinity.SetAffinity{MAI: v, Weight: 1})
		}
		a := m.MapPrivate(sets)
		counts := a.RegionCounts(9)
		total := 0
		for _, c := range counts {
			total += c
			if c < 7 || c > 8 {
				return false // 64/9 = 7.1: every region must hold 7-8
			}
		}
		if total != 64 {
			return false
		}
		for k := range sets {
			if m.cfg.Mesh.RegionOf(a.Core[k]) != a.Region[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMapSharedUsesAlpha(t *testing.T) {
	mesh := topology.Default6x6()
	nb := NewMapper(Config{Mesh: mesh, DisableBalance: true})
	// CAI points hard at region R9 (idx 8); MAI points hard at MC0
	// (region R1). With α≈1 the set should follow the cache affinity;
	// with α≈0 the memory affinity.
	cai := make(affinity.Vector, 9)
	cai[8] = 1
	mai := affinity.Vector{1, 0, 0, 0}
	hiAlpha := []affinity.SetAffinity{{MAI: mai, CAI: cai, Alpha: 0.95, Weight: 1}}
	loAlpha := []affinity.SetAffinity{{MAI: mai, CAI: cai, Alpha: 0.05, Weight: 1}}
	if a := nb.MapShared(hiAlpha); a.Region[0] != 8 {
		t.Errorf("high-α set assigned R%d, want R9", a.Region[0]+1)
	}
	if a := nb.MapShared(loAlpha); a.Region[0] != 0 {
		t.Errorf("low-α set assigned R%d, want R1", a.Region[0]+1)
	}
}

func TestMapSharedRejectsBadCAI(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong CAI length")
		}
	}()
	mapper().MapShared([]affinity.SetAffinity{{MAI: affinity.Vector{1, 0, 0, 0}, CAI: affinity.Vector{1}}})
}

func TestIntraRandomBalancesWithinRegion(t *testing.T) {
	m := NewMapper(Config{Mesh: topology.Default6x6(), Seed: 42})
	sets := uniformSets(360, 4)
	a := m.MapPrivate(sets)
	perCore := make(map[topology.NodeID]int)
	for _, c := range a.Core {
		perCore[c]++
	}
	for c, n := range perCore {
		if n < 9 || n > 11 {
			t.Errorf("core %d got %d sets, want ~10", c, n)
		}
	}
}

func TestIntraPoliciesAgreeOnLoad(t *testing.T) {
	for _, pol := range []IntraPolicy{IntraRandom, IntraRoundRobin} {
		m := NewMapper(Config{Mesh: topology.Default6x6(), Intra: pol})
		a := m.MapPrivate(uniformSets(72, 4))
		perCore := make(map[topology.NodeID]int)
		for _, c := range a.Core {
			perCore[c]++
		}
		for c, n := range perCore {
			if n != 2 {
				t.Errorf("policy %v: core %d got %d sets, want 2", pol, c, n)
			}
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	s1 := uniformSets(100, 4)
	s2 := uniformSets(100, 4)
	a := NewMapper(Config{Mesh: topology.Default6x6(), Seed: 7}).MapPrivate(s1)
	b := NewMapper(Config{Mesh: topology.Default6x6(), Seed: 7}).MapPrivate(s2)
	for k := range a.Core {
		if a.Core[k] != b.Core[k] {
			t.Fatalf("mapping not deterministic at set %d", k)
		}
	}
}

func TestDefaultScheduleRoundRobin(t *testing.T) {
	mesh := topology.Default6x6()
	a := DefaultSchedule(mesh, 80)
	for k := 0; k < 80; k++ {
		if a.Core[k] != topology.NodeID(k%36) {
			t.Fatalf("set %d on core %d, want %d", k, a.Core[k], k%36)
		}
		if mesh.RegionOf(a.Core[k]) != a.Region[k] {
			t.Fatalf("region mismatch at %d", k)
		}
	}
}

func TestFineMACChangesVectors(t *testing.T) {
	coarse := NewMapper(Config{Mesh: topology.Default6x6()})
	fine := NewMapper(Config{Mesh: topology.Default6x6(), FineMAC: true})
	// R1's coarse MAC is (1,0,0,0); fine MAC must spread some weight.
	if fine.MAC()[0][1] <= coarse.MAC()[0][1] {
		t.Error("fine MAC should give non-winner MCs some weight")
	}
	if math.Abs(fine.MAC()[0].Sum()-1) > 1e-9 {
		t.Error("fine MAC not normalized")
	}
}

func TestEmptySets(t *testing.T) {
	a := mapper().MapPrivate(nil)
	if len(a.Core) != 0 || a.Moved != 0 || a.FracMoved() != 0 {
		t.Error("empty input should produce empty assignment")
	}
}

func TestTotalErrorMonotonicInBalance(t *testing.T) {
	// Balancing trades affinity error for load balance: the unbalanced
	// assignment's total error is a lower bound.
	sets := make([]affinity.SetAffinity, 120)
	for k := range sets {
		v := make(affinity.Vector, 4)
		v[k%4] = 0.75
		v[(k+1)%4] = 0.25
		sets[k] = affinity.SetAffinity{MAI: v, Weight: 1}
	}
	balanced := NewMapper(Config{Mesh: topology.Default6x6()}).MapPrivate(sets)
	free := NewMapper(Config{Mesh: topology.Default6x6(), DisableBalance: true}).MapPrivate(sets)
	if free.TotalError > balanced.TotalError+1e-9 {
		t.Errorf("unbalanced error %.3f should not exceed balanced %.3f",
			free.TotalError, balanced.TotalError)
	}
	if free.Moved != 0 {
		t.Error("DisableBalance must not move sets")
	}
}

func TestRegionCountsMatchAssignment(t *testing.T) {
	m := mapper()
	sets := uniformSets(100, 4)
	a := m.MapPrivate(sets)
	counts := a.RegionCounts(9)
	total := 0
	for r, c := range counts {
		total += c
		for k := range a.Region {
			if int(a.Region[k]) == r && m.cfg.Mesh.RegionOf(a.Core[k]) != a.Region[k] {
				t.Fatalf("set %d: core/region mismatch", k)
			}
		}
	}
	if total != 100 {
		t.Errorf("counts sum to %d", total)
	}
}

func TestEmptyAffinityVectorsStillMap(t *testing.T) {
	// Sets with no information (all-zero MAI: every access hit the L1)
	// must still be assigned somewhere and balanced.
	sets := make([]affinity.SetAffinity, 45)
	for k := range sets {
		sets[k] = affinity.SetAffinity{MAI: make(affinity.Vector, 4), Weight: 1}
	}
	a := mapper().MapPrivate(sets)
	counts := a.RegionCounts(9)
	for r, c := range counts {
		if c != 5 {
			t.Errorf("region %d got %d sets, want 5", r, c)
		}
	}
}

// TestConcurrentMappersIndependent runs many Mapper instances (one per
// goroutine, as locmapd creates them per request) over the same inputs
// and checks every goroutine gets the identical assignment. Under
// -race this proves mapping draws no shared (global math/rand) state.
func TestConcurrentMappersIndependent(t *testing.T) {
	sets := uniformSets(120, 4)
	want := NewMapper(Config{Mesh: topology.Default6x6(), Seed: 3}).MapPrivate(sets)
	const goroutines = 8
	results := make([]*Assignment, goroutines)
	done := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			m := NewMapper(Config{Mesh: topology.Default6x6(), Seed: 3})
			in := append([]affinity.SetAffinity(nil), sets...)
			results[g] = m.MapPrivate(in)
			done <- g
		}(g)
	}
	for i := 0; i < goroutines; i++ {
		<-done
	}
	for g, got := range results {
		for k := range want.Core {
			if got.Core[k] != want.Core[k] || got.Region[k] != want.Region[k] {
				t.Fatalf("goroutine %d: set %d -> (R%d, core %d), want (R%d, core %d)",
					g, k, got.Region[k], got.Core[k], want.Region[k], want.Core[k])
			}
		}
	}
}

// TestMapperRepeatedCallsReproducible: every Map* call on one instance
// must see the same shuffle stream a fresh Mapper would, so mapping N
// nests through one Mapper equals mapping them through N fresh ones.
func TestMapperRepeatedCallsReproducible(t *testing.T) {
	sets := uniformSets(90, 4)
	shared := NewMapper(Config{Mesh: topology.Default6x6(), Seed: 11})
	for call := 0; call < 3; call++ {
		got := shared.MapPrivate(sets)
		want := NewMapper(Config{Mesh: topology.Default6x6(), Seed: 11}).MapPrivate(sets)
		for k := range want.Core {
			if got.Core[k] != want.Core[k] {
				t.Fatalf("call %d: set %d on core %d, fresh mapper says %d",
					call, k, got.Core[k], want.Core[k])
			}
		}
	}
}

// balanceReference is balance as it was before each pair's deltas were
// computed once: it recomputes every donor set's delta for each
// transfer. TestBalanceMatchesReference holds the two to the same
// transfers.
func (m *Mapper) balanceReference(region []topology.RegionID, errTab []float64) int {
	nr := m.cfg.Mesh.NumRegions()
	numSets := len(region)
	counts := make([]int, nr)
	byRegion := make([][]int, nr)
	for k, r := range region {
		counts[r]++
		byRegion[r] = append(byRegion[r], k)
	}
	base := numSets / nr
	extra := numSets % nr
	order := make([]int, nr)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	target := make([]int, nr)
	for i, r := range order {
		target[r] = base
		if i < extra {
			target[r] = base + 1
		}
	}
	type pair struct {
		donor, recv int
		dist        int
	}
	var pairs []pair
	for d := 0; d < nr; d++ {
		if counts[d] <= target[d] {
			continue
		}
		for r := 0; r < nr; r++ {
			if counts[r] >= target[r] || r == d {
				continue
			}
			pairs = append(pairs, pair{d, r, m.cfg.Mesh.RegionDistance(topology.RegionID(d), topology.RegionID(r))})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].dist < pairs[j].dist })
	moved := 0
	for _, p := range pairs {
		for counts[p.donor] > target[p.donor] && counts[p.recv] < target[p.recv] {
			bestIdx, bestDelta := -1, math.Inf(1)
			for idx, k := range byRegion[p.donor] {
				delta := errTab[k*nr+p.recv] - errTab[k*nr+p.donor]
				if delta < bestDelta {
					bestDelta, bestIdx = delta, idx
				}
			}
			if bestIdx < 0 {
				break
			}
			k := byRegion[p.donor][bestIdx]
			last := len(byRegion[p.donor]) - 1
			byRegion[p.donor][bestIdx] = byRegion[p.donor][last]
			byRegion[p.donor] = byRegion[p.donor][:last]
			byRegion[p.recv] = append(byRegion[p.recv], k)
			region[k] = topology.RegionID(p.recv)
			counts[p.donor]--
			counts[p.recv]++
			moved++
		}
	}
	return moved
}

// TestBalanceMatchesReference checks that every transfer moves the set
// the per-transfer rescan chose, over random error tables drawn from a
// few values (so deltas tie often, and the swap-removed list order
// decides) with some NaN and infinite entries, and skewed starting
// assignments on two region grids.
func TestBalanceMatchesReference(t *testing.T) {
	values := []float64{0, 0.25, 0.5, 0.5, 1, 1, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(5))
	for _, mesh := range []*topology.Mesh{topology.Default6x6(), topology.MustNew(8, 8, 4, 4, topology.MCCorners)} {
		m := NewMapper(Config{Mesh: mesh})
		nr := mesh.NumRegions()
		for trial := 0; trial < 300; trial++ {
			numSets := 1 + rng.Intn(400)
			hot := 1 + rng.Intn(nr)
			region := make([]topology.RegionID, numSets)
			for k := range region {
				region[k] = topology.RegionID(rng.Intn(hot))
			}
			errTab := make([]float64, numSets*nr)
			for i := range errTab {
				errTab[i] = values[rng.Intn(len(values))]
			}
			want := append([]topology.RegionID(nil), region...)
			wantMoved := m.balanceReference(want, errTab)
			gotMoved := m.balance(region, errTab)
			if gotMoved != wantMoved {
				t.Fatalf("%v trial %d: moved %d sets, reference %d", mesh, trial, gotMoved, wantMoved)
			}
			for k := range want {
				if region[k] != want[k] {
					t.Fatalf("%v trial %d: set %d to R%d, reference R%d", mesh, trial, k, region[k], want[k])
				}
			}
		}
	}
}
