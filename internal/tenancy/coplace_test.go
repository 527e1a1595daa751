package tenancy

import (
	"math"
	"reflect"
	"testing"

	"locmap/internal/affinity"
	"locmap/internal/core"
	"locmap/internal/topology"
)

// mcTenant builds a synthetic tenant whose misses all target one MC.
func mcTenant(id string, mesh *topology.Mesh, mc int) Tenant {
	mai := make(affinity.Vector, mesh.NumMCs())
	mai[mc] = 1
	return Tenant{
		ID: id,
		Affs: [][]affinity.SetAffinity{{
			{MAI: mai, Alpha: 0.2, Weight: 100},
		}},
	}
}

func TestStridedPartition(t *testing.T) {
	mesh := topology.Default6x6()
	parts := StridedPartition(mesh, 4)
	if len(parts) != 4 {
		t.Fatalf("got %d partitions, want 4", len(parts))
	}
	for ti, cores := range parts {
		if len(cores) != 9 {
			t.Fatalf("tenant %d owns %d cores, want 9", ti, len(cores))
		}
		for _, c := range cores {
			if int(c)%4 != ti {
				t.Fatalf("core %d dealt to tenant %d, want %d", c, ti, int(c)%4)
			}
		}
	}
}

func TestCoPlaceTwoTenantsBeatStrided(t *testing.T) {
	mesh := topology.Default6x6()
	// Two tenants pulling to opposite corner MCs: co-placement should
	// give each a compact half near its controller, while the strided
	// baseline interleaves them over the whole chip.
	tenants := []Tenant{mcTenant("a", mesh, 0), mcTenant("b", mesh, 3)}
	cfg := CoPlaceConfig{Mesh: mesh, Seed: 1}
	pl, err := CoPlace(cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Score.Interference >= pl.Baseline.Interference {
		t.Fatalf("co-placement interference %.4f not strictly below strided %.4f",
			pl.Score.Interference, pl.Baseline.Interference)
	}
	if pl.Score.Cost > pl.Baseline.Cost {
		t.Fatalf("co-placement cost %.4f worse than strided %.4f", pl.Score.Cost, pl.Baseline.Cost)
	}
	// Baseline really is the strided partition under the same objective.
	strided, err := ScorePartition(cfg, tenants, StridedPartition(mesh, 2))
	if err != nil {
		t.Fatal(err)
	}
	if strided != pl.Baseline {
		t.Fatalf("Baseline %+v != ScorePartition(strided) %+v", pl.Baseline, strided)
	}
}

// TestCoPlaceBeatsStridedOnMultiprogMix is the served counterpart of
// the §5 multiprogrammed study: the DefaultMix applications' real
// affinity extractions, co-placed on the default chip, must score
// strictly lower cross-tenant interference than the strided
// independent partition the study uses.
func TestCoPlaceBeatsStridedOnMultiprogMix(t *testing.T) {
	mesh, tenants := multiprogTenants(t)
	for _, n := range []int{2, 4} {
		pl, err := CoPlace(CoPlaceConfig{Mesh: mesh, Seed: 1}, tenants[:n])
		if err != nil {
			t.Fatalf("%d tenants: %v", n, err)
		}
		if pl.Score.Interference >= pl.Baseline.Interference {
			t.Errorf("%d-tenant mix: interference %.4f not strictly below strided %.4f",
				n, pl.Score.Interference, pl.Baseline.Interference)
		}
		if pl.Score.Cost > pl.Baseline.Cost {
			t.Errorf("%d-tenant mix: cost %.4f worse than strided %.4f",
				n, pl.Score.Cost, pl.Baseline.Cost)
		}
	}
}

func TestCoPlaceDeterministic(t *testing.T) {
	mesh := topology.Default6x6()
	tenants := []Tenant{
		mcTenant("a", mesh, 0), mcTenant("b", mesh, 1), mcTenant("c", mesh, 2),
	}
	cfg := CoPlaceConfig{Mesh: mesh, Seed: 42, Rounds: 256}
	p1, err := CoPlace(cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CoPlace(cfg, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("same seed produced different placements:\n%+v\nvs\n%+v", p1, p2)
	}
	if p1.Evaluated != 2+256 {
		t.Fatalf("Evaluated = %d, want seeds+rounds = 258", p1.Evaluated)
	}
}

func TestCoPlacePartitionInvariants(t *testing.T) {
	mesh := topology.Default6x6()
	for _, n := range []int{1, 2, 3, 5} {
		var tenants []Tenant
		for i := 0; i < n; i++ {
			tenants = append(tenants, mcTenant(string(rune('a'+i)), mesh, i%mesh.NumMCs()))
		}
		pl, err := CoPlace(CoPlaceConfig{Mesh: mesh, Seed: 7}, tenants)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		seen := make(map[topology.NodeID]string)
		for _, tp := range pl.Tenants {
			// Equal shares; remainder tenants get one extra.
			if len(tp.Cores) < mesh.NumNodes()/n || len(tp.Cores) > mesh.NumNodes()/n+1 {
				t.Fatalf("n=%d: tenant %s owns %d cores", n, tp.ID, len(tp.Cores))
			}
			for i, c := range tp.Cores {
				if prev, dup := seen[c]; dup {
					t.Fatalf("n=%d: core %d owned by %s and %s", n, c, prev, tp.ID)
				}
				seen[c] = tp.ID
				if i > 0 && tp.Cores[i-1] >= c {
					t.Fatalf("n=%d: tenant %s cores not sorted: %v", n, tp.ID, tp.Cores)
				}
			}
		}
		if len(seen) != mesh.NumNodes() {
			t.Fatalf("n=%d: partition covers %d of %d cores", n, len(seen), mesh.NumNodes())
		}
	}
}

func TestCoPlaceSingleTenantNoInterference(t *testing.T) {
	mesh := topology.Default6x6()
	pl, err := CoPlace(CoPlaceConfig{Mesh: mesh, Seed: 1}, []Tenant{mcTenant("solo", mesh, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Score.Interference != 0 {
		t.Fatalf("single tenant has interference %.4f, want 0", pl.Score.Interference)
	}
	if len(pl.Tenants[0].Cores) != mesh.NumNodes() {
		t.Fatalf("single tenant owns %d cores, want the whole mesh", len(pl.Tenants[0].Cores))
	}
}

func TestCoPlaceErrors(t *testing.T) {
	mesh := topology.Default6x6()
	if _, err := CoPlace(CoPlaceConfig{}, []Tenant{{ID: "a"}}); err == nil {
		t.Error("nil mesh accepted")
	}
	if _, err := CoPlace(CoPlaceConfig{Mesh: mesh}, nil); err == nil {
		t.Error("zero tenants accepted")
	}
	many := make([]Tenant, mesh.NumNodes()+1)
	if _, err := CoPlace(CoPlaceConfig{Mesh: mesh}, many); err == nil {
		t.Error("more tenants than cores accepted")
	}
	if _, err := ScorePartition(CoPlaceConfig{}, nil, nil); err == nil {
		t.Error("ScorePartition accepted a nil mesh")
	}
	if _, err := ScorePartition(CoPlaceConfig{Mesh: mesh}, make([]Tenant, 2), make([][]topology.NodeID, 1)); err == nil {
		t.Error("ScorePartition accepted mismatched partition count")
	}
}

func TestExtractDemandNormalization(t *testing.T) {
	mesh := topology.Default6x6()
	tn := mcTenant("a", mesh, 2)
	tn.Weight = 3
	d := extractDemand(&tn, mesh.NumMCs())
	sum := 0.0
	for _, v := range d.perMC {
		sum += v
	}
	if math.Abs(sum-3) > 1e-9 {
		t.Fatalf("demand sums to %.4f, want Weight=3", sum)
	}
	if d.perMC[2] != sum {
		t.Fatalf("demand not concentrated on MC 2: %v", d.perMC)
	}

	// No affinities at all: uniform demand, still normalized.
	empty := Tenant{ID: "e"}
	d = extractDemand(&empty, 4)
	for _, v := range d.perMC {
		if math.Abs(v-0.25) > 1e-9 {
			t.Fatalf("empty tenant demand %v, want uniform 0.25", d.perMC)
		}
	}
}

func TestClampToCores(t *testing.T) {
	mesh := topology.Default6x6()
	// 12 sets initially spread over the whole mesh, clamped to a
	// 4-core partition in the top-left corner.
	cores := []topology.NodeID{0, 1, 6, 7}
	a := &core.Assignment{
		Region: make([]topology.RegionID, 12),
		Core:   make([]topology.NodeID, 12),
	}
	for k := range a.Core {
		a.Core[k] = topology.NodeID(k * 3)
		a.Region[k] = mesh.RegionOf(a.Core[k])
	}
	out := ClampToCores(mesh, a, cores)
	load := make(map[topology.NodeID]int)
	inPart := map[topology.NodeID]bool{0: true, 1: true, 6: true, 7: true}
	for k, c := range out.Core {
		if !inPart[c] {
			t.Fatalf("set %d clamped to %d, outside the partition", k, c)
		}
		if out.Region[k] != mesh.RegionOf(c) {
			t.Fatalf("set %d region %d does not match core %d", k, out.Region[k], c)
		}
		load[c]++
	}
	// 12 sets over 4 cores: the balance cap is 3 per core.
	for c, n := range load {
		if n > 3 {
			t.Fatalf("core %d carries %d sets, cap is 3", c, n)
		}
	}
}
