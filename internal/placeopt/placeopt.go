// Package placeopt inverts the paper's problem: instead of fixing the
// chip and optimizing the computation-to-core mapping, it searches the
// chip's physical placement space — where the memory controllers
// attach to the mesh — for a given workload mix, co-optimizing the
// mapping per candidate ("Optimal Placement of Cores, Caches and
// Memory Controllers in NoC", PAPERS.md).
//
// The search composes two idioms from the related work:
//
//   - candidate seeding follows the PCMap greedy AMD order
//     (SNIPPETS.md §3): sites are ranked by average Manhattan distance
//     to the whole mesh and selected greedily under a minimum pairwise
//     spread, sweeping the spread threshold to produce a family of
//     structurally distinct seeds;
//   - refinement is a simulated-annealing mutate/evaluate loop in the
//     spirit of the Core_Placement RL environment (SNIPPETS.md §2):
//     move one controller to a free site (or swap two controller ids,
//     which re-partitions the address space), score, and accept uphill
//     moves with geometrically cooling probability (internal/anneal,
//     the kernel co-placement also runs).
//
// Every candidate is scored through the analytical estimate tier
// (internal/estimate): one compile and one affinity extraction are
// shared across the whole search, so a candidate costs only a distance
// table rebuild plus a remap — tens of microseconds — and hundreds of
// candidates stay interactive. The caller verifies the surviving top-K
// with real simulations (locmapd fans them out through
// internal/jobqueue; see internal/server).
//
// The search is deliberately sequential and seeded: a fixed Seed
// yields a byte-identical result at any server worker count, which
// keeps optimize responses cacheable and replayable.
package placeopt

import (
	"fmt"
	"math/rand"
	"sort"

	"locmap/internal/affinity"
	"locmap/internal/anneal"
	"locmap/internal/compiler"
	"locmap/internal/core"
	"locmap/internal/estimate"
	"locmap/internal/sim"
	"locmap/internal/topology"
)

// Defaults, bounds and tuning constants of the search.
const (
	DefaultCandidates = 400
	DefaultTopK       = 3
	MaxCandidates     = 20000
	MaxTopK           = 16

	// progressEvery is how many evaluations pass between Progress
	// callbacks.
	progressEvery = 32

	// swapProb is the probability a mutation swaps two controller ids
	// (re-partitioning the page interleave) instead of moving one
	// controller to a free site.
	swapProb = 0.25
)

// Candidate site pools.
const (
	// SitesEdge restricts MC attachment to the mesh perimeter — the
	// realistic pool (controllers need pin-out at the die edge) and the
	// default.
	SitesEdge = "edge"
	// SitesAny allows any mesh node.
	SitesAny = "any"
)

// Placement is one point in the search space, in wire form: coordinate
// pairs [x,y] in MC-id order (the order matters — MC i owns the i-th
// page-interleave partition). Banks optionally restricts which tiles
// host shared-LLC home banks; the search keeps banks fixed and only
// moves MCs, but carries Banks through so a bank-constrained target
// round-trips.
type Placement struct {
	MCs   [][2]int `json:"mcs"`
	Banks [][2]int `json:"banks,omitempty"`
}

// MCCoords converts the MC list to topology coordinates.
func (p Placement) MCCoords() []topology.Coord { return toCoords(p.MCs) }

func toCoords(ps [][2]int) []topology.Coord {
	out := make([]topology.Coord, len(ps))
	for i, c := range ps {
		out[i] = topology.Coord{X: c[0], Y: c[1]}
	}
	return out
}

func fromCoords(cs []topology.Coord) [][2]int {
	out := make([][2]int, len(cs))
	for i, c := range cs {
		out[i] = [2]int{c.X, c.Y}
	}
	return out
}

// FromMesh captures a mesh's current MC placement in wire form.
func FromMesh(m *topology.Mesh) Placement {
	return Placement{MCs: fromCoords(m.MCs())}
}

// Config parameterizes a Search.
type Config struct {
	// Target is the base machine: its mesh supplies the dimensions,
	// region grid and the *default* placement the search must beat; the
	// rest of the config (NoC timing, cache geometry, address map)
	// is shared by every candidate.
	Target sim.Config

	// Mapper holds the computation-to-core mapping knobs re-run per
	// candidate. Mesh is overridden per candidate and may be nil.
	Mapper core.Config

	// Candidates is the total number of placements scored through the
	// estimate tier, default placement and seeds included (default
	// DefaultCandidates, capped at MaxCandidates).
	Candidates int

	// TopK is how many distinct survivors are returned for simulation
	// verify (default DefaultTopK, capped at MaxTopK).
	TopK int

	// Seed drives the annealing PRNG. The search is sequential: a
	// fixed seed gives a byte-identical Result at any worker count.
	Seed int64

	// Sites selects the candidate site pool: SitesEdge (default) or
	// SitesAny.
	Sites string

	// Progress, when non-nil, is invoked every progressEvery
	// evaluations and once at the end.
	Progress func(Progress)
}

// Progress is a point-in-time view of a running search.
type Progress struct {
	Evaluated int   `json:"evaluated"`
	Total     int   `json:"total"`
	BestCost  int64 `json:"best_cost"`
}

// Scored is a placement with its estimate-tier cost.
type Scored struct {
	Placement Placement `json:"placement"`

	// PredictedCycles is the analytical makespan of the co-optimized
	// mapping on this chip; ImprovementPct compares it against the
	// default placement's (positive = better than default).
	PredictedCycles int64   `json:"predicted_cycles"`
	ImprovementPct  float64 `json:"improvement_pct"`
}

// Result is a finished search.
type Result struct {
	// Default is the base mesh's own placement, always evaluated
	// first; Best is the lowest-cost placement seen (never worse than
	// Default — the incumbent starts there); Top holds the TopK
	// distinct survivors in ascending cost order, Best first.
	Default   Scored   `json:"default"`
	Best      Scored   `json:"best"`
	Top       []Scored `json:"top"`
	Evaluated int      `json:"evaluated"`
}

// Search runs the placement search over a finished compilation.
// Irregular nests must have index data bound (compile with
// compiler.CompileBound), exactly as on the estimate serving path.
func Search(cfg Config, res *compiler.Result) (*Result, error) {
	mesh := cfg.Target.Mesh
	if mesh == nil {
		return nil, fmt.Errorf("placeopt: Target.Mesh is nil")
	}
	if cfg.Candidates <= 0 {
		cfg.Candidates = DefaultCandidates
	}
	if cfg.Candidates > MaxCandidates {
		cfg.Candidates = MaxCandidates
	}
	if cfg.TopK <= 0 {
		cfg.TopK = DefaultTopK
	}
	if cfg.TopK > MaxTopK {
		cfg.TopK = MaxTopK
	}
	var sites []topology.Coord
	switch cfg.Sites {
	case "", SitesEdge:
		sites = mesh.EdgeCoords()
	case SitesAny:
		for n := 0; n < mesh.NumNodes(); n++ {
			sites = append(sites, mesh.CoordOf(topology.NodeID(n)))
		}
	default:
		return nil, fmt.Errorf("placeopt: unknown site pool %q", cfg.Sites)
	}
	numMC := mesh.NumMCs()
	if len(sites) < numMC {
		return nil, fmt.Errorf("placeopt: %d candidate sites cannot host %d MCs", len(sites), numMC)
	}

	// One affinity extraction serves the whole search: the vectors
	// depend on the address interleave and cache capacity, which every
	// candidate shares, not on where the controllers sit.
	mapperCfg := cfg.Mapper
	mapperCfg.Mesh = nil
	baseMapper := mapperCfg
	baseMapper.Mesh = mesh
	affs := estimate.New(estimate.Config{Cfg: cfg.Target, Mapper: baseMapper}).Affinities(res)

	s := &searcher{
		cfg:    cfg,
		mesh:   mesh,
		res:    res,
		affs:   affs,
		mapper: mapperCfg,
		sites:  sites,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		top:    newTopList(cfg.TopK),
	}

	// The default placement is candidate #0 and the starting
	// incumbent, so Best can never be worse than Default.
	def := mesh.MCs()
	defCost := s.eval(def)
	s.best, s.bestCost = def, defCost

	s.seedGreedy()
	s.anneal(defCost)

	if cfg.Progress != nil {
		cfg.Progress(Progress{Evaluated: s.evaluated, Total: cfg.Candidates, BestCost: s.bestCost})
	}

	out := &Result{
		Default:   Scored{Placement: Placement{MCs: fromCoords(def)}, PredictedCycles: defCost},
		Best:      scored(s.best, s.bestCost, defCost),
		Evaluated: s.evaluated,
	}
	for _, e := range s.top.entries {
		out.Top = append(out.Top, scored(e.mcs, e.cost, defCost))
	}
	return out, nil
}

func scored(mcs []topology.Coord, cost, defCost int64) Scored {
	sc := Scored{Placement: Placement{MCs: fromCoords(mcs)}, PredictedCycles: cost}
	if defCost > 0 {
		sc.ImprovementPct = 100 * float64(defCost-cost) / float64(defCost)
	}
	return sc
}

// searcher carries the mutable state of one Search call.
type searcher struct {
	cfg    Config
	mesh   *topology.Mesh
	res    *compiler.Result
	affs   [][]affinity.SetAffinity
	mapper core.Config
	sites  []topology.Coord
	rng    *rand.Rand
	top    *topList

	evaluated int
	best      []topology.Coord
	bestCost  int64
}

func (s *searcher) budgetLeft() bool { return s.evaluated < s.cfg.Candidates }

// eval scores one MC placement: rebuild the candidate mesh and its
// distance tables, remap every nest, and return the predicted
// makespan. Cost per call is dominated by the remap — tens of
// microseconds on the 6×6 default target.
func (s *searcher) eval(mcs []topology.Coord) int64 {
	m2, err := s.mesh.WithMCs(mcs)
	if err != nil {
		// Mutations only ever produce valid placements; a failure here
		// is a programming error.
		panic(fmt.Sprintf("placeopt: invalid candidate: %v", err))
	}
	target := s.cfg.Target
	target.Mesh = m2
	e := estimate.New(estimate.Config{Cfg: target, Mapper: s.mapper})
	plan := e.FromAffinities(s.res, s.affs)
	cost := plan.PredictedCycles
	s.evaluated++
	s.top.add(mcs, cost)
	if cost < s.bestCost || s.best == nil {
		s.best = append([]topology.Coord(nil), mcs...)
		s.bestCost = cost
	}
	if s.cfg.Progress != nil && s.evaluated%progressEvery == 0 {
		s.cfg.Progress(Progress{Evaluated: s.evaluated, Total: s.cfg.Candidates, BestCost: s.bestCost})
	}
	return cost
}

// seedGreedy evaluates the PCMap-style greedy seeds: sites in
// ascending-AMD order, selected under a minimum pairwise Manhattan
// spread, sweeping the spread from wide to none. Wide spreads give
// corner-like placements, spread 0 gives a tight low-AMD cluster.
func (s *searcher) seedGreedy() {
	ordered := append([]topology.Coord(nil), s.sites...)
	sort.SliceStable(ordered, func(i, j int) bool {
		ai, aj := s.mesh.AMD(ordered[i]), s.mesh.AMD(ordered[j])
		if ai != aj {
			return ai < aj
		}
		return s.mesh.NodeAt(ordered[i]) < s.mesh.NodeAt(ordered[j])
	})
	numMC := s.mesh.NumMCs()
	for spread := s.mesh.Width + s.mesh.Height; spread >= 0 && s.budgetLeft(); spread-- {
		var sel []topology.Coord
		for _, c := range ordered {
			ok := true
			for _, p := range sel {
				if c.Manhattan(p) < spread {
					ok = false
					break
				}
			}
			if ok {
				sel = append(sel, c)
				if len(sel) == numMC {
					break
				}
			}
		}
		if len(sel) == numMC {
			s.eval(sel)
		}
	}
}

// anneal refines the incumbent with the shared annealing kernel, one
// mutate/evaluate step per remaining candidate; the temperature scales
// with the default placement's predicted cost.
func (s *searcher) anneal(defCost int64) {
	cur := append([]topology.Coord(nil), s.best...)
	var next []topology.Coord
	anneal.Run(s.rng, s.cfg.Candidates-s.evaluated, float64(defCost), float64(s.bestCost),
		func() float64 {
			next = s.mutate(cur)
			return float64(s.eval(next))
		},
		func(ok bool) {
			if ok {
				cur = next
			}
		})
}

// mutate returns a fresh neighbor of cur: usually one controller moved
// to an unoccupied site, sometimes two controller ids swapped (which
// keeps the geometry but re-partitions the page interleave).
func (s *searcher) mutate(cur []topology.Coord) []topology.Coord {
	next := append([]topology.Coord(nil), cur...)
	if len(next) >= 2 && s.rng.Float64() < swapProb {
		i := s.rng.Intn(len(next))
		j := s.rng.Intn(len(next) - 1)
		if j >= i {
			j++
		}
		next[i], next[j] = next[j], next[i]
		return next
	}
	occupied := make(map[topology.Coord]bool, len(next))
	for _, c := range next {
		occupied[c] = true
	}
	i := s.rng.Intn(len(next))
	for tries := 0; tries < 64; tries++ {
		cand := s.sites[s.rng.Intn(len(s.sites))]
		if !occupied[cand] {
			next[i] = cand
			return next
		}
	}
	return next
}

// topList keeps the K best distinct placements in ascending cost
// order. Distinctness is by exact MC sequence: the same geometry with
// a different controller order is a different chip (the interleave
// partitions land elsewhere).
type topList struct {
	k       int
	entries []topEntry
	seen    map[string]bool
}

type topEntry struct {
	mcs  []topology.Coord
	cost int64
}

func newTopList(k int) *topList {
	return &topList{k: k, seen: make(map[string]bool)}
}

func placementKey(mcs []topology.Coord) string {
	return fmt.Sprint(mcs)
}

func (t *topList) add(mcs []topology.Coord, cost int64) {
	key := placementKey(mcs)
	if t.seen[key] {
		return
	}
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].cost > cost })
	if i >= t.k {
		return
	}
	t.seen[key] = true
	t.entries = append(t.entries, topEntry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = topEntry{mcs: append([]topology.Coord(nil), mcs...), cost: cost}
	if len(t.entries) > t.k {
		drop := t.entries[len(t.entries)-1]
		delete(t.seen, placementKey(drop.mcs))
		t.entries = t.entries[:t.k]
	}
}
