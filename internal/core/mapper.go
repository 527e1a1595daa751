// Package core implements the paper's primary contribution: the
// location-aware assignment of loop-iteration sets to cores.
//
// Algorithm 1 (private LLC) assigns each iteration set to the region whose
// MAC vector is most similar to the set's MAI vector, then balances the
// per-region loads by transferring surplus sets between nearby
// donor/receiver region pairs. Algorithm 2 (shared S-NUCA LLC) replaces
// the per-region error with the α-weighted combination of cache-affinity
// error η_c = Eta(CAI, CAC) and memory-affinity error η_m = Eta(MAI, MAC).
// The load-balancing phase is shared between the two.
//
// Within a region, iteration sets are spread over the region's cores
// randomly but evenly (§3.9); a deterministic round-robin policy is also
// provided, modelling the paper's "let the OS schedule within the region"
// option.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"locmap/internal/affinity"
	"locmap/internal/topology"
)

// IntraPolicy selects how iteration sets assigned to a region are spread
// over the region's cores.
type IntraPolicy int

const (
	// IntraRandom shuffles a region's sets before dealing them out
	// round-robin — the paper's default fine-granularity policy.
	IntraRandom IntraPolicy = iota
	// IntraRoundRobin deals sets out deterministically in set order,
	// approximating the paper's "OS scheduling within region" option.
	IntraRoundRobin
)

// Config parameterizes the mapper.
type Config struct {
	Mesh *topology.Mesh

	// FineMAC switches MAC from the winner-take-all nearest-MC vectors
	// (Figure 6a) to inverse-distance weights — the finer-granularity
	// alternative discussed in §3.9. Ablation use.
	FineMAC bool

	// Intra selects the within-region core assignment policy.
	Intra IntraPolicy

	// Seed drives the IntraRandom shuffle.
	Seed int64

	// DisableBalance turns off the load-balancing phase (ablation).
	DisableBalance bool
}

// Mapper holds precomputed per-region affinity vectors.
//
// All randomness (the IntraRandom shuffle) comes from a per-instance
// *rand.Rand rewound to Config.Seed for every nest — no package touches
// the global math/rand state, and the seed's sequence is computed once
// per process and only read after (see shuffleSource). Two mappers with
// the same config therefore produce identical assignments, independent
// of what runs on other goroutines.
// The Map* methods mutate that per-instance state, so a single Mapper
// must not be shared by concurrent goroutines; construction is cheap —
// create one per goroutine (as locmapd does per request).
type Mapper struct {
	cfg  Config
	macs []affinity.Vector
	cacs []affinity.Vector
	rng  *rand.Rand
}

// NewMapper builds a mapper for the given configuration.
func NewMapper(cfg Config) *Mapper {
	if cfg.Mesh == nil {
		panic("core: Config.Mesh is nil")
	}
	m := &Mapper{cfg: cfg, rng: rand.New(&shuffleSource{})}
	if cfg.FineMAC {
		m.macs = affinity.MACFineAll(cfg.Mesh)
	} else {
		m.macs = affinity.MACAll(cfg.Mesh)
	}
	m.cacs = affinity.CACAll(cfg.Mesh)
	return m
}

// MAC returns the per-region memory affinity vectors in use.
func (m *Mapper) MAC() []affinity.Vector { return m.macs }

// CAC returns the per-region cache affinity vectors.
func (m *Mapper) CAC() []affinity.Vector { return m.cacs }

// Assignment is the result of mapping one parallel nest.
type Assignment struct {
	// Region[k] is the region iteration set k was assigned to.
	Region []topology.RegionID
	// Core[k] is the core iteration set k runs on.
	Core []topology.NodeID
	// Moved counts sets transferred by the load-balancing phase.
	Moved int
	// TotalError is the summed per-set affinity error after balancing —
	// the objective Algorithms 1/2 minimize subject to balance.
	TotalError float64
}

// FracMoved returns Moved as a fraction of all sets (Table 3's last
// column).
func (a *Assignment) FracMoved() float64 {
	if len(a.Region) == 0 {
		return 0
	}
	return float64(a.Moved) / float64(len(a.Region))
}

// RegionCounts returns how many sets each region received.
func (a *Assignment) RegionCounts(numRegions int) []int {
	counts := make([]int, numRegions)
	for _, r := range a.Region {
		counts[r]++
	}
	return counts
}

// errPrivate is Algorithm 1's per-set, per-region error: η(MAI, MAC).
func (m *Mapper) errPrivate(s *affinity.SetAffinity, r int) float64 {
	return affinity.Eta(s.MAI, m.macs[r])
}

// errShared is Algorithm 2's combined error: α·η(CAI,CAC) + (1−α)·η(MAI,MAC).
func (m *Mapper) errShared(s *affinity.SetAffinity, r int) float64 {
	em := affinity.Eta(s.MAI, m.macs[r])
	ec := affinity.Eta(s.CAI, m.cacs[r])
	return s.Alpha*ec + (1-s.Alpha)*em
}

// Map runs the mapping step of the paper's Figure 4 pipeline over the
// iteration sets of one nest, whichever front half produced their
// affinities: Algorithm 2 (MapShared) for a shared S-NUCA LLC,
// Algorithm 1 (MapPrivate) otherwise.
func (m *Mapper) Map(sets []affinity.SetAffinity, shared bool) *Assignment {
	if shared {
		return m.MapShared(sets)
	}
	return m.MapPrivate(sets)
}

// MapPrivate runs Algorithm 1 over the iteration sets of one nest.
func (m *Mapper) MapPrivate(sets []affinity.SetAffinity) *Assignment {
	return m.mapWith(sets, m.errPrivate)
}

// MapShared runs Algorithm 2 over the iteration sets of one nest. Every
// set must carry a CAI vector sized to the region count.
func (m *Mapper) MapShared(sets []affinity.SetAffinity) *Assignment {
	for i := range sets {
		if len(sets[i].CAI) != m.cfg.Mesh.NumRegions() {
			panic(fmt.Sprintf("core: set %d CAI has %d entries, want %d",
				i, len(sets[i].CAI), m.cfg.Mesh.NumRegions()))
		}
	}
	return m.mapWith(sets, m.errShared)
}

func (m *Mapper) mapWith(sets []affinity.SetAffinity, errFn func(*affinity.SetAffinity, int) float64) *Assignment {
	nr := m.cfg.Mesh.NumRegions()
	a := &Assignment{
		Region: make([]topology.RegionID, len(sets)),
		Core:   make([]topology.NodeID, len(sets)),
	}
	// The per-set × per-region error table, computed once. Phase 1
	// needs every entry anyway; precomputing turns the balancing inner
	// loop (which used to recompute Eta per candidate per transfer)
	// and the final objective into array lookups, without changing a
	// single value — locmapd's fast tier runs this on every request.
	errTab := make([]float64, len(sets)*nr)
	for k := range sets {
		row := errTab[k*nr : (k+1)*nr : (k+1)*nr]
		for r := 0; r < nr; r++ {
			row[r] = errFn(&sets[k], r)
		}
	}
	// Phase 1: per-set argmin over regions (Algorithm 1 lines 8–14).
	for k := range sets {
		best, bi := math.Inf(1), 0
		for r, e := range errTab[k*nr : (k+1)*nr] {
			if e < best {
				best, bi = e, r
			}
		}
		a.Region[k] = topology.RegionID(bi)
	}
	// Phase 2: location-aware load balancing (lines 15–24).
	if !m.cfg.DisableBalance {
		a.Moved = m.balance(a.Region, errTab)
	}
	for k, r := range a.Region {
		a.TotalError += errTab[k*nr+int(r)]
	}
	// Phase 3: within-region fine-granularity core assignment (§3.9).
	m.assignCores(a)
	return a
}

// balance transfers surplus iteration sets from over-loaded (donor)
// regions to under-loaded (receiver) regions, preferring close-by
// donor/receiver pairs, until every region is within one set of the
// average. errTab holds each set's error per region, row-major by
// set. Returns the number of sets moved.
func (m *Mapper) balance(region []topology.RegionID, errTab []float64) int {
	nr := m.cfg.Mesh.NumRegions()
	numSets := len(region)
	counts := make([]int, nr)
	byRegion := make([][]int, nr) // set ids per region
	for k, r := range region {
		counts[r]++
		byRegion[r] = append(byRegion[r], k)
	}
	// Exact targets: every region ends with base or base+1 sets. The
	// regions that already hold the most sets keep the +1, minimizing
	// the number of transfers.
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

	// Build the NBGH pair list: every (donor, receiver) pair ordered by
	// region-to-region distance (SORTED_NBGH in Algorithm 1).
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
	var deltas []float64
	for _, p := range pairs {
		if counts[p.donor] <= target[p.donor] || counts[p.recv] >= target[p.recv] {
			continue
		}
		// Each donor set's error increase when re-homed to the
		// receiver, kept in step with the donor list: a pair's deltas
		// do not change between its transfers.
		ids := byRegion[p.donor]
		deltas = deltas[:0]
		for _, k := range ids {
			deltas = append(deltas, errTab[k*nr+p.recv]-errTab[k*nr+p.donor])
		}
		for counts[p.donor] > target[p.donor] && counts[p.recv] < target[p.recv] {
			// Move the donor set whose error increases least (the
			// first strict minimum in list order): the transfer
			// stays as location-friendly as possible.
			bestIdx, bestDelta := -1, math.Inf(1)
			for idx, delta := range deltas {
				if delta < bestDelta {
					bestDelta, bestIdx = delta, idx
				}
			}
			if bestIdx < 0 {
				break
			}
			k := ids[bestIdx]
			last := len(ids) - 1
			ids[bestIdx], deltas[bestIdx] = ids[last], deltas[last]
			ids, deltas = ids[:last], deltas[:last]
			byRegion[p.recv] = append(byRegion[p.recv], k)
			region[k] = topology.RegionID(p.recv)
			counts[p.donor]--
			counts[p.recv]++
			moved++
		}
		byRegion[p.donor] = ids
	}
	return moved
}

// assignCores distributes each region's sets over the region's cores.
func (m *Mapper) assignCores(a *Assignment) {
	nr := m.cfg.Mesh.NumRegions()
	byRegion := make([][]int, nr)
	for k, r := range a.Region {
		byRegion[r] = append(byRegion[r], k)
	}
	// Rewind per nest so every mapping drawn from this instance sees
	// the same shuffle stream a fresh Mapper would — assignments stay
	// reproducible per call, not dependent on how many nests were
	// mapped before.
	m.rng.Seed(m.cfg.Seed)
	for r := 0; r < nr; r++ {
		ids := byRegion[r]
		if m.cfg.Intra == IntraRandom {
			m.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		}
		cores := m.cfg.Mesh.RegionNodes(topology.RegionID(r))
		for i, k := range ids {
			a.Core[k] = cores[i%len(cores)]
		}
	}
}

// DefaultSchedule returns the baseline round-robin assignment the paper
// compares against: iteration set k runs on core k mod P, with no location
// information.
func DefaultSchedule(mesh *topology.Mesh, numSets int) *Assignment {
	a := &Assignment{
		Region: make([]topology.RegionID, numSets),
		Core:   make([]topology.NodeID, numSets),
	}
	p := mesh.NumNodes()
	for k := 0; k < numSets; k++ {
		c := topology.NodeID(k % p)
		a.Core[k] = c
		a.Region[k] = mesh.RegionOf(c)
	}
	return a
}
