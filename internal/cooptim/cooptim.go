// Package cooptim implements the paper's stated future work (§5, §7):
// co-optimizing the computation mapping and the data (page) placement
// together. "Since computation and data distributions are tightly
// coupled, a co-optimization approach can be promising."
//
// The optimizer alternates the two halves:
//
//  1. profile the program's page-access histogram under the current
//     schedule;
//  2. relocate the hottest mismatched pages (via a mem.Overlay) to the MC
//     nearest their dominant accessor region;
//  3. re-derive per-set affinities against the new address map and remap
//     computations with Algorithm 1/2;
//
// until the estimated off-chip transfer distance stops improving or the
// round budget is exhausted. Both halves are pure compile-time analyses
// over the reference streams — no simulation in the loop.
package cooptim

import (
	"sort"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/core"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/sim"
	"locmap/internal/topology"
)

// Options configure the co-optimizer.
type Options struct {
	Cfg    sim.Config
	Mapper core.Config

	// Rounds bounds the alternation count (default 3).
	Rounds int
	// MaxRelocations bounds relocated pages per round (default 4096);
	// OSes cap page migrations in practice.
	MaxRelocations int
}

// Result is the co-optimized placement.
type Result struct {
	// Schedule is the final iteration-set-to-core schedule.
	Schedule *sim.Schedule
	// Map is the final address map (an overlay over the config's
	// address map, sim.AddrMapFor) with all page relocations applied.
	Map *mem.Overlay
	// Relocated counts pages moved across all rounds.
	Relocated int
	// Rounds is how many alternations ran before convergence.
	Rounds int
	// Cost traces the estimated access-distance objective per round
	// (Cost[0] is the pre-optimization value).
	Cost []float64
}

// pageKey identifies a page in the profile.
type pageKey = mem.Addr

// Optimize runs the alternation on program p. The program must be laid
// out (workloads and the compiler do this).
func Optimize(p *loop.Program, opts Options) *Result {
	if opts.Cfg.Mesh == nil {
		opts.Cfg = sim.DefaultConfig()
	}
	cfg := opts.Cfg
	if opts.Mapper.Mesh == nil {
		opts.Mapper.Mesh = cfg.Mesh
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 3
	}
	if opts.MaxRelocations <= 0 {
		opts.MaxRelocations = 4096
	}
	overlay := mem.NewOverlay(sim.AddrMapFor(cfg), cfg.PageSize)
	mapper := core.NewMapper(opts.Mapper)
	shared := cfg.LLCOrg == cache.SharedSNUCA

	res := &Result{Map: overlay}

	// Start from the default schedule.
	sched := defaultSchedule(p, cfg)
	res.Cost = append(res.Cost, cost(p, cfg, overlay, sched))

	for round := 0; round < opts.Rounds; round++ {
		// Half 1: move hot mismatched pages toward their accessors.
		res.Relocated += relocate(p, cfg, overlay, sched, opts.MaxRelocations)

		// Half 2: remap computations against the updated address map.
		sched = remap(p, cfg, overlay, mapper, shared)

		c := cost(p, cfg, overlay, sched)
		res.Cost = append(res.Cost, c)
		res.Rounds = round + 1
		if len(res.Cost) >= 2 && c >= res.Cost[len(res.Cost)-2]*0.995 {
			break // converged
		}
	}
	res.Schedule = sched
	return res
}

func defaultSchedule(p *loop.Program, cfg sim.Config) *sim.Schedule {
	s := &sim.Schedule{}
	for _, n := range p.Nests {
		s.Assign = append(s.Assign, core.DefaultSchedule(cfg.Mesh, len(n.IterationSets(cfg.IterSetFrac))))
	}
	return s
}

// profile walks every reference and accumulates, per page, the access
// count per assigned core region (line-granularity sampling keeps the
// histogram proportional to miss traffic).
func profile(p *loop.Program, cfg sim.Config, sched *sim.Schedule) map[pageKey][]float64 {
	mesh := cfg.Mesh
	pages := make(map[pageKey][]float64)
	var iv []int64
	lineMask := mem.Addr(cfg.L2Line - 1)
	for i, n := range p.Nests {
		sets := n.IterationSets(cfg.IterSetFrac)
		for k, set := range sets {
			region := int(sched.Assign[i].Region[k])
			var lastLine mem.Addr
			first := true
			for flat := set.Lo; flat < set.Hi; flat++ {
				iv = n.Unflatten(iv, flat)
				for r := range n.Refs {
					addr := n.Refs[r].Addr(iv, flat)
					line := addr &^ lineMask
					if !first && line == lastLine {
						continue
					}
					first = false
					lastLine = line
					pg := addr / mem.Addr(cfg.PageSize)
					h := pages[pg]
					if h == nil {
						h = make([]float64, mesh.NumRegions())
						pages[pg] = h
					}
					h[region]++
				}
			}
		}
	}
	return pages
}

// relocate moves up to maxMoves of the hottest mismatched pages to the
// MC nearest their dominant accessor region. Returns pages moved.
func relocate(p *loop.Program, cfg sim.Config, overlay *mem.Overlay, sched *sim.Schedule, maxMoves int) int {
	mesh := cfg.Mesh
	pages := profile(p, cfg, sched)
	type cand struct {
		pg   pageKey
		mc   int
		gain float64
	}
	var cands []cand
	for pg, hist := range pages {
		addr := pg * mem.Addr(cfg.PageSize)
		cur := overlay.MC(addr)
		// Distance-weighted cost per candidate MC.
		best, bestCost, curCost := cur, 0.0, 0.0
		for mc := 0; mc < mesh.NumMCs(); mc++ {
			c := 0.0
			for region, cnt := range hist {
				if cnt > 0 {
					c += cnt * float64(mesh.RegionMCDistance(topology.RegionID(region), topology.MCID(mc)))
				}
			}
			if mc == cur {
				curCost = c
			}
			if mc == 0 || c < bestCost {
				best, bestCost = mc, c
			}
		}
		if best != cur && curCost-bestCost > 0 {
			cands = append(cands, cand{pg: pg, mc: best, gain: curCost - bestCost})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })
	if len(cands) > maxMoves {
		cands = cands[:maxMoves]
	}
	for _, c := range cands {
		overlay.Relocate(c.pg, c.mc)
	}
	return len(cands)
}

// remap derives per-set affinities against the current map (analytically,
// line-sampled like the profile) and reruns Algorithm 1/2.
func remap(p *loop.Program, cfg sim.Config, amap mem.Map, mapper *core.Mapper, shared bool) *sim.Schedule {
	mesh := cfg.Mesh
	sched := &sim.Schedule{}
	var iv []int64
	lineMask := mem.Addr(cfg.L2Line - 1)
	for _, n := range p.Nests {
		sets := n.IterationSets(cfg.IterSetFrac)
		sa := make([]affinity.SetAffinity, len(sets))
		for k, set := range sets {
			mai := affinity.NewBuilder(mesh.NumMCs())
			var cai *affinity.Builder
			if shared {
				cai = affinity.NewBuilder(mesh.NumRegions())
			}
			var lastLine mem.Addr
			first := true
			for flat := set.Lo; flat < set.Hi; flat++ {
				iv = n.Unflatten(iv, flat)
				for r := range n.Refs {
					addr := n.Refs[r].Addr(iv, flat)
					line := addr &^ lineMask
					if !first && line == lastLine {
						continue
					}
					first = false
					lastLine = line
					mai.AddOne(amap.MC(addr))
					if shared {
						bank := amap.HomeBank(addr) % mesh.NumNodes()
						cai.AddOne(int(mesh.RegionOf(topology.NodeID(bank))))
					}
				}
			}
			sa[k] = affinity.SetAffinity{MAI: mai.Vector(), Weight: set.Len()}
			if shared {
				sa[k].CAI = cai.Vector()
				sa[k].Alpha = 0.5 // static compromise without a miss model
			}
		}
		sched.Assign = append(sched.Assign, mapper.Map(sa, shared))
	}
	return sched
}

// cost is the objective: Σ over (page, region) of access count times the
// region↔MC Manhattan distance under the current placement.
func cost(p *loop.Program, cfg sim.Config, amap mem.Map, sched *sim.Schedule) float64 {
	mesh := cfg.Mesh
	total := 0.0
	for pg, hist := range profile(p, cfg, sched) {
		mc := topology.MCID(amap.MC(pg * mem.Addr(cfg.PageSize)))
		for region, cnt := range hist {
			if cnt > 0 {
				total += cnt * float64(mesh.RegionMCDistance(topology.RegionID(region), mc))
			}
		}
	}
	return total
}
