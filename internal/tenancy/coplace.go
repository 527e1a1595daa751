package tenancy

import (
	"fmt"
	"math/rand"
	"sort"

	"locmap/internal/affinity"
	"locmap/internal/anneal"
	"locmap/internal/core"
	"locmap/internal/topology"
)

// Co-placement: N tenants share one mesh, and the scheduler must
// decide which cores each tenant owns. The multiprogrammed study
// (internal/experiments/multiprog.go) fixes this by striding cores
// round-robin across tenants — every tenant owns a thin slice of every
// region, so every tenant's memory traffic crosses every other
// tenant's. Co-placement instead treats the partition itself as the
// search space: a greedy seed places each tenant's cores near the
// memory controllers its affinity vectors point at, and a simulated
// annealing pass (internal/anneal, the kernel internal/placeopt also
// runs, with swaps between tenants as the move) refines the partition
// against an objective with an explicit cross-tenant interference term
// over the shared NoC links and memory controllers — the CODA-style
// co-location objective (PAPERS.md).
//
// The objective is analytical and deliberately cheap (no simulation):
//
//	cost = locality + λ·interference
//
// where locality is each tenant's demand-weighted mean hop count from
// its cores to the MCs it misses to, and interference is the pairwise
// product of per-link (and per-MC) loads across tenants — the
// Σ_r Σ_{t≠u} L_t(r)·L_u(r) contention form, which is zero exactly
// when no two tenants share a link or controller. Per-tenant demand
// is extracted once from the affinity vectors (estimate.Affinities),
// so one CoPlace call is thousands of pure arithmetic evaluations.

// Co-placement defaults and bounds.
const (
	DefaultCoPlaceRounds = 512
	MaxCoPlaceRounds     = 20000
)

// Tenant is one session's workload in a shared-mesh group.
type Tenant struct {
	// ID names the tenant in the resulting placement.
	ID string

	// Affs is the workload's per-nest set affinities
	// (estimate.Estimator.Affinities): the demand extraction walks
	// every set's MAI and α.
	Affs [][]affinity.SetAffinity

	// Weight scales the tenant's demand (default 1). The epoch
	// controller sets it from observed telemetry: a tenant measured
	// more memory-bound than predicted pushes harder on the shared
	// resources and gets pulled closer to its controllers.
	Weight float64
}

// CoPlaceConfig parameterizes CoPlace.
type CoPlaceConfig struct {
	// Mesh is the shared machine. Required.
	Mesh *topology.Mesh

	// Rounds bounds the annealing evaluations after the seeds
	// (default DefaultCoPlaceRounds, capped at MaxCoPlaceRounds).
	Rounds int

	// Seed drives the annealing PRNG. The search is sequential and
	// seeded: a fixed seed gives identical partitions on every run.
	Seed int64

	// Lambda weights the interference term against locality (default:
	// the mesh diameter W+H, putting one unit of pairwise overlap on
	// the scale of a worst-case hop count).
	Lambda float64
}

// TenantPlacement is one tenant's share of the mesh.
type TenantPlacement struct {
	ID    string            `json:"id"`
	Cores []topology.NodeID `json:"cores"`
}

// Score is the objective breakdown of one partition.
type Score struct {
	// Locality is the summed demand-weighted mean hop count from each
	// tenant's cores to its controllers.
	Locality float64 `json:"locality"`

	// Interference is the cross-tenant contention term: pairwise
	// products of per-link and per-MC loads, summed over the shared
	// resources. Zero iff no link or controller is shared.
	Interference float64 `json:"interference"`

	// Cost is Locality + λ·Interference, the annealed objective.
	Cost float64 `json:"cost"`
}

// Placement is a finished co-placement: the partition, its score, and
// the independent-mapping baseline (the multiprog strided partition)
// scored under the same objective for comparison.
type Placement struct {
	Tenants []TenantPlacement `json:"tenants"`

	Score Score `json:"score"`

	// Baseline scores the strided independent partition — what each
	// tenant gets when placed with no knowledge of its co-tenants.
	Baseline Score `json:"baseline"`

	// Evaluated counts scored partitions (seeds + annealing moves).
	Evaluated int `json:"evaluated"`
}

// demand is one tenant's extracted traffic model: per-MC miss volume
// plus total volume, normalized so Σ mc = Weight.
type demand struct {
	id    string
	perMC []float64
	total float64 // pre-normalization volume, the greedy ordering key
}

// extractDemand folds a tenant's affinity vectors into per-MC demand:
// each set contributes Weight·(1−α) split over MCs by its MAI (uniform
// when the set recorded no misses).
func extractDemand(t *Tenant, numMC int) demand {
	d := demand{id: t.ID, perMC: make([]float64, numMC)}
	for _, nest := range t.Affs {
		for i := range nest {
			sa := &nest[i]
			vol := float64(sa.Weight) * (1 - sa.Alpha)
			if vol <= 0 {
				continue
			}
			d.total += vol
			if len(sa.MAI) == numMC && sa.MAI.Sum() > 0 {
				for mc, w := range sa.MAI {
					d.perMC[mc] += vol * w
				}
			} else {
				for mc := range d.perMC {
					d.perMC[mc] += vol / float64(numMC)
				}
			}
		}
	}
	w := t.Weight
	if w <= 0 {
		w = 1
	}
	sum := 0.0
	for _, v := range d.perMC {
		sum += v
	}
	if sum > 0 {
		for mc := range d.perMC {
			d.perMC[mc] *= w / sum
		}
	} else {
		for mc := range d.perMC {
			d.perMC[mc] = w / float64(numMC)
		}
	}
	d.total *= w
	return d
}

// StridedPartition deals the mesh's cores round-robin over n tenants
// (core i belongs to tenant i mod n) — the multiprog study's
// partition, and co-placement's independent-mapping baseline.
func StridedPartition(mesh *topology.Mesh, n int) [][]topology.NodeID {
	out := make([][]topology.NodeID, n)
	for c := 0; c < mesh.NumNodes(); c++ {
		out[c%n] = append(out[c%n], topology.NodeID(c))
	}
	return out
}

// CoPlace partitions the mesh's cores over the tenants, minimizing
// locality + λ·interference. Partition sizes are fixed (equal shares,
// remainder to the heaviest tenants); the search only permutes which
// cores each tenant owns. Deterministic for a fixed Seed.
func CoPlace(cfg CoPlaceConfig, tenants []Tenant) (*Placement, error) {
	if cfg.Mesh == nil {
		return nil, fmt.Errorf("tenancy: CoPlaceConfig.Mesh is nil")
	}
	n := len(tenants)
	if n == 0 {
		return nil, fmt.Errorf("tenancy: no tenants to place")
	}
	if n > cfg.Mesh.NumNodes() {
		return nil, fmt.Errorf("tenancy: %d tenants exceed %d cores", n, cfg.Mesh.NumNodes())
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = DefaultCoPlaceRounds
	}
	if cfg.Rounds > MaxCoPlaceRounds {
		cfg.Rounds = MaxCoPlaceRounds
	}
	sc := newScorer(cfg.Mesh, tenants, cfg.Lambda)

	// Seeds: the affinity-greedy partition and the strided baseline.
	// The incumbent starts at the better of the two, so the result is
	// never worse (on the objective) than independent placement.
	greedy := sc.greedySeed()
	strided := StridedPartition(cfg.Mesh, n)
	baseline := sc.score(strided)
	greedyScore := sc.score(greedy)
	evaluated := 2

	best, bestScore := greedy, greedyScore
	if baseline.Cost < bestScore.Cost {
		best, bestScore = clonePartition(strided), baseline
	}

	// Annealing refinement through the shared kernel: swap one core
	// between two tenants, and swap it back when the kernel rejects
	// the step. A sole tenant has no one to swap with.
	rng := rand.New(rand.NewSource(cfg.Seed))
	cur := clonePartition(best)
	steps := cfg.Rounds
	if n < 2 {
		steps = 0
	}
	var ti, tj, ci, cj int
	var s Score
	anneal.Run(rng, steps, bestScore.Cost, bestScore.Cost,
		func() float64 {
			ti = rng.Intn(n)
			tj = rng.Intn(n - 1)
			if tj >= ti {
				tj++
			}
			ci = rng.Intn(len(cur[ti]))
			cj = rng.Intn(len(cur[tj]))
			cur[ti][ci], cur[tj][cj] = cur[tj][cj], cur[ti][ci]
			s = sc.score(cur)
			evaluated++
			return s.Cost
		},
		func(ok bool) {
			switch {
			case !ok:
				cur[ti][ci], cur[tj][cj] = cur[tj][cj], cur[ti][ci] // revert
			case s.Cost < bestScore.Cost:
				best, bestScore = clonePartition(cur), s
			}
		})

	out := &Placement{
		Score:     bestScore,
		Baseline:  baseline,
		Evaluated: evaluated,
	}
	for i, t := range tenants {
		cores := append([]topology.NodeID(nil), best[i]...)
		sort.Slice(cores, func(a, b int) bool { return cores[a] < cores[b] })
		out.Tenants = append(out.Tenants, TenantPlacement{ID: t.ID, Cores: cores})
	}
	return out, nil
}

func clonePartition(p [][]topology.NodeID) [][]topology.NodeID {
	out := make([][]topology.NodeID, len(p))
	for i := range p {
		out[i] = append([]topology.NodeID(nil), p[i]...)
	}
	return out
}

// scorer evaluates partitions against the shared-resource objective.
// It precomputes per-tenant demand, node→MC distances and routes once.
type scorer struct {
	mesh    *topology.Mesh
	demands []demand
	lambda  float64

	mcNodes []topology.NodeID
	rt      *topology.RouteTable

	// linkLoad is scratch: per-link per-tenant load, reused across
	// score calls ([tenant][link]).
	linkLoad [][]float64
	mcLoad   [][]float64
}

func newScorer(mesh *topology.Mesh, tenants []Tenant, lambda float64) *scorer {
	numMC := mesh.NumMCs()
	sc := &scorer{
		mesh:   mesh,
		lambda: lambda,
		rt:     mesh.NewRouteTable(),
	}
	if sc.lambda <= 0 {
		sc.lambda = float64(mesh.Width + mesh.Height)
	}
	for i := range tenants {
		sc.demands = append(sc.demands, extractDemand(&tenants[i], numMC))
	}
	for mc := 0; mc < numMC; mc++ {
		sc.mcNodes = append(sc.mcNodes, mesh.MCNode(topology.MCID(mc)))
	}
	sc.linkLoad = make([][]float64, len(tenants))
	sc.mcLoad = make([][]float64, len(tenants))
	for i := range tenants {
		sc.linkLoad[i] = make([]float64, mesh.NumLinks())
		sc.mcLoad[i] = make([]float64, numMC)
	}
	return sc
}

// greedySeed builds the affinity-seeded partition: tenants in
// descending demand volume pick their quota of free cores in
// ascending demand-weighted MC distance — each tenant clusters around
// the controllers it actually misses to.
func (sc *scorer) greedySeed() [][]topology.NodeID {
	n := len(sc.demands)
	nodes := sc.mesh.NumNodes()
	quota := make([]int, n)
	for i := range quota {
		quota[i] = nodes / n
	}
	// Remainder cores go to the heaviest tenants.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sc.demands[order[a]].total > sc.demands[order[b]].total
	})
	for i := 0; i < nodes%n; i++ {
		quota[order[i]]++
	}

	free := make([]bool, nodes)
	for i := range free {
		free[i] = true
	}
	out := make([][]topology.NodeID, n)
	for _, ti := range order {
		d := &sc.demands[ti]
		type rank struct {
			node topology.NodeID
			cost float64
		}
		ranks := make([]rank, 0, nodes)
		for c := 0; c < nodes; c++ {
			if !free[c] {
				continue
			}
			cost := 0.0
			for mc, w := range d.perMC {
				cost += w * float64(sc.mesh.Distance(topology.NodeID(c), sc.mcNodes[mc]))
			}
			ranks = append(ranks, rank{topology.NodeID(c), cost})
		}
		sort.SliceStable(ranks, func(a, b int) bool {
			if ranks[a].cost != ranks[b].cost {
				return ranks[a].cost < ranks[b].cost
			}
			return ranks[a].node < ranks[b].node
		})
		for k := 0; k < quota[ti]; k++ {
			out[ti] = append(out[ti], ranks[k].node)
			free[ranks[k].node] = false
		}
	}
	return out
}

// score evaluates one partition. Each tenant's per-MC demand is
// spread uniformly over its cores; the load flows along the X-Y
// routes (both directions, matching the request and reply legs) and
// lands on the MC itself.
func (sc *scorer) score(parts [][]topology.NodeID) Score {
	var s Score
	for ti := range sc.demands {
		ll, ml := sc.linkLoad[ti], sc.mcLoad[ti]
		for i := range ll {
			ll[i] = 0
		}
		for i := range ml {
			ml[i] = 0
		}
		cores := parts[ti]
		if len(cores) == 0 {
			continue
		}
		inv := 1 / float64(len(cores))
		for mc, w := range sc.demands[ti].perMC {
			if w == 0 {
				continue
			}
			perCore := w * inv
			ml[mc] += w
			dst := sc.mcNodes[mc]
			for _, c := range cores {
				s.Locality += perCore * float64(sc.mesh.Distance(c, dst))
				for _, l := range sc.rt.Route(c, dst) {
					ll[l] += perCore
				}
				for _, l := range sc.rt.Route(dst, c) {
					ll[l] += perCore
				}
			}
		}
	}
	// Pairwise cross-tenant overlap on every shared resource:
	// Σ_r [(Σ_t L)² − Σ_t L²] / 2.
	for l := 0; l < sc.mesh.NumLinks(); l++ {
		var sum, sq float64
		for ti := range sc.demands {
			v := sc.linkLoad[ti][l]
			sum += v
			sq += v * v
		}
		s.Interference += (sum*sum - sq) / 2
	}
	for mc := range sc.mcNodes {
		var sum, sq float64
		for ti := range sc.demands {
			v := sc.mcLoad[ti][mc]
			sum += v
			sq += v * v
		}
		s.Interference += (sum*sum - sq) / 2
	}
	s.Cost = s.Locality + sc.lambda*s.Interference
	return s
}

// ScorePartition evaluates an explicit partition (e.g. the strided
// baseline) under the same objective CoPlace anneals — tests and the
// bench-smoke never-worse guard compare placements through it.
func ScorePartition(cfg CoPlaceConfig, tenants []Tenant, parts [][]topology.NodeID) (Score, error) {
	if cfg.Mesh == nil {
		return Score{}, fmt.Errorf("tenancy: CoPlaceConfig.Mesh is nil")
	}
	if len(parts) != len(tenants) {
		return Score{}, fmt.Errorf("tenancy: %d partitions for %d tenants", len(parts), len(tenants))
	}
	return newScorer(cfg.Mesh, tenants, cfg.Lambda).score(parts), nil
}

// ClampToCores projects a full-mesh assignment onto a tenant's core
// partition: each set moves to the free partition core nearest its
// originally assigned core, with per-core load capped for balance.
// It is the multiprog study's clamp, shared here so the served
// scenario and the experiment cannot drift.
func ClampToCores(mesh *topology.Mesh, a *core.Assignment, cores []topology.NodeID) *core.Assignment {
	n := len(a.Core)
	capPer := (n + len(cores) - 1) / len(cores)
	load := make(map[topology.NodeID]int, len(cores))
	out := &core.Assignment{
		Region: make([]topology.RegionID, n),
		Core:   make([]topology.NodeID, n),
		Moved:  a.Moved,
	}
	order := make([]topology.NodeID, len(cores))
	for k := 0; k < n; k++ {
		copy(order, cores)
		want := a.Core[k]
		sort.SliceStable(order, func(i, j int) bool {
			return mesh.Distance(order[i], want) < mesh.Distance(order[j], want)
		})
		placed := order[len(order)-1]
		for _, c := range order {
			if load[c] < capPer {
				placed = c
				break
			}
		}
		load[placed]++
		out.Core[k] = placed
		out.Region[k] = mesh.RegionOf(placed)
	}
	return out
}
