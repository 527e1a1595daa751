// Package sim is the manycore system simulator: in-order cores driving
// per-core L1 caches, a private or shared (S-NUCA) banked L2 LLC, a 2D
// mesh NoC and DDR memory controllers. It executes loop.Program nests
// under an iteration-set-to-core schedule and reports execution time,
// total on-chip network latency and the per-iteration-set access
// observations (which MC served each miss, which bank region served each
// hit) that ground-truth the compiler's affinity estimates.
//
// Timing model, per data reference:
//
//	L1 hit                     -> L1Latency
//	L1 miss, private LLC hit   -> L1 + L2Latency (local bank, no NoC)
//	L1 miss, shared  LLC hit   -> L1 + NoC(core→home bank) + L2 + NoC(bank→core)
//	LLC miss (private)         -> ... + NoC(core→MC) + DRAM + NoC(MC→core)
//	LLC miss (shared)          -> ... + NoC(bank→MC) + DRAM + NoC(MC→core)
//
// Miss responses travel from the MC directly to the requesting core, so
// the core↔MC proximity matters for misses even under S-NUCA — the
// property Algorithm 2's η_m term optimizes.
//
// Execution is discrete-event at single-reference granularity: every NoC
// send and DRAM completion is a heap event, which keeps the per-link
// busy-until contention state causally consistent across cores without
// flit-level simulation. Each in-order core overlaps the references of
// one iteration (MSHR-style memory-level parallelism) and commits
// iterations in order.
//
// # Region-partitioned engine and its determinism contract
//
// The event engine is partitioned along the mesh's region structure:
// every core, LLC bank and memory controller belongs to exactly one
// region, each region has its own (t, seq) event heap, and each event
// stage is owned by the region whose state it mutates (see the stage
// table in engine.go). Regions advance in lock-stepped time windows:
// each round, every region in turn drains its heap up to a shared
// horizon T+W (T = the earliest pending event anywhere, W =
// windowCycles), then the engine exchanges what crossed region
// boundaries —
//
//   - boundary events wait in one buffer during the window and are
//     then pushed into their destination heaps in (source region, FIFO)
//     order, where they receive their destination-local sequence
//     numbers;
//   - link reservations made during the window through each region's
//     copy-on-write view of the NoC's busy-until state are folded back
//     (noc.ShardView.Fold) in region order, serializing same-window
//     occupancy from different regions onto each link.
//
// Within a region, events are served in strict (t, seq) order; seq is
// region-local and deterministic, so the complete schedule is a pure
// function of the machine's region structure. The windows are part of
// the timing model, not a parallelism device: they decide when one
// region sees another's traffic, and the golden tables
// (internal/experiments/testdata) pin the schedule they produce.
//
// Per-chain timing stays exact at any W: event timestamps are computed
// from each leg's arrival arithmetic, never clamped to window edges.
// What W bounds is contention staleness — a region sees other regions'
// link reservations only from before its current window, so the
// busy-until state a walk observes can lag by up to roughly one window.
// Changing W (or anything that changes the service order of equal-time
// events) is therefore an observable simulation change and must come
// with re-derived goldens (internal/experiments/testdata).
package sim

import (
	"fmt"

	"locmap/internal/cache"
	"locmap/internal/core"
	"locmap/internal/dram"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/noc"
	"locmap/internal/stats"
	"locmap/internal/topology"
)

// Config describes the simulated machine (defaults = Table 4).
type Config struct {
	Mesh *topology.Mesh
	NoC  noc.Config

	LLCOrg cache.Organization

	L1Size, L1Line, L1Ways    int
	L2PerCore, L2Line, L2Ways int

	// L1Latency and L2Latency are access latencies in cycles.
	L1Latency, L2Latency int64

	PageSize int
	DRAM     dram.Config

	// MCGran / BankGran set the interleave granularities (Figure 11).
	MCGran, BankGran mem.Granularity

	// AddrMap overrides the default interleaved map when non-nil (the
	// KNL cluster modes install custom hashes here).
	AddrMap mem.Map

	// IterSetFrac is the iteration-set size as a fraction of a nest's
	// trip count (Table 4: 0.25%).
	IterSetFrac float64

	// Workers is kept so existing callers still compile.
	//
	// Deprecated: ignored. The region engine always runs serially.
	Workers int
}

// DefaultConfig returns the paper's Table 4 machine: 6×6 mesh, 9 regions,
// 16KB/8-way/32B L1, 512KB/16-way/64B L2 per core, 2KB pages, DDR3 with 4
// MCs, X-Y routed NoC with 3-cycle routers.
func DefaultConfig() Config {
	return Config{
		Mesh:        topology.Default6x6(),
		NoC:         noc.DefaultConfig(),
		LLCOrg:      cache.Private,
		L1Size:      16 << 10,
		L1Line:      32,
		L1Ways:      8,
		L2PerCore:   512 << 10,
		L2Line:      64,
		L2Ways:      16,
		L1Latency:   1,
		L2Latency:   6,
		PageSize:    2 << 10,
		DRAM:        dram.DefaultConfig(),
		MCGran:      mem.GranPage,
		BankGran:    mem.GranCacheLine,
		IterSetFrac: 0.0025,
	}
}

// System is an instantiated machine.
type System struct {
	cfg  Config
	amap mem.Map
	net  *noc.Network
	llc  *cache.LLC
	ddr  *dram.DRAM
	l1   []*cache.Cache

	coreTime []int64 // per-core local clock
	mcNode   []topology.NodeID

	// Per-leg network latency accounting (see LegStats).
	legLat [numLegs]uint64
	legCnt [numLegs]uint64

	// eng is the persistent region engine: shards, link-state views and
	// the boundary buffer are allocated once and re-armed per nest. A
	// System (and its engine) is not safe for concurrent use.
	eng *engine
}

// AddrMapFor resolves the address map a Config implies: the explicit
// cfg.AddrMap if set, otherwise the default interleaved map. It is the
// map New would install, without paying for the cache models — callers
// that only inspect placement (the compiler, the analytical estimator)
// should use this instead of constructing a System.
func AddrMapFor(cfg Config) mem.Map {
	if cfg.Mesh == nil {
		panic("sim: Config.Mesh is nil")
	}
	if cfg.AddrMap != nil {
		return cfg.AddrMap
	}
	im := mem.NewInterleaved(cfg.PageSize, cfg.L2Line, cfg.Mesh.NumMCs(), cfg.Mesh.NumNodes())
	im.MCGran = cfg.MCGran
	im.BankGran = cfg.BankGran
	return im
}

// New builds a System. It panics on inconsistent cache geometry, which is
// always a programming error in a static config.
func New(cfg Config) *System {
	if cfg.Mesh == nil {
		panic("sim: Config.Mesh is nil")
	}
	nodes := cfg.Mesh.NumNodes()
	amap := AddrMapFor(cfg)
	llc, err := cache.NewLLC(cfg.LLCOrg, nodes, cfg.L2PerCore, cfg.L2Line, cfg.L2Ways, amap)
	if err != nil {
		panic(fmt.Sprintf("sim: LLC geometry: %v", err))
	}
	dcfg := cfg.DRAM
	dcfg.MCs = cfg.Mesh.NumMCs()
	s := &System{
		cfg:      cfg,
		amap:     amap,
		net:      noc.New(cfg.Mesh, cfg.NoC),
		llc:      llc,
		ddr:      dram.New(dcfg),
		l1:       make([]*cache.Cache, nodes),
		coreTime: make([]int64, nodes),
		mcNode:   make([]topology.NodeID, cfg.Mesh.NumMCs()),
	}
	for i := range s.l1 {
		s.l1[i] = cache.MustNew(cfg.L1Size, cfg.L1Line, cfg.L1Ways)
	}
	for mc := range s.mcNode {
		s.mcNode[mc] = cfg.Mesh.MCNode(topology.MCID(mc))
	}
	return s
}

// Config returns the machine description.
func (s *System) Config() Config { return s.cfg }

// AddrMap returns the address map in effect — the same map the compiler
// inspects (the paper's OS guarantees VA bits survive translation).
func (s *System) AddrMap() mem.Map { return s.amap }

// Mesh returns the topology.
func (s *System) Mesh() *topology.Mesh { return s.cfg.Mesh }

// Sets partitions a nest into iteration sets at the configured size.
func (s *System) Sets(n *loop.Nest) []loop.IterSet {
	return n.IterationSets(s.cfg.IterSetFrac)
}

// Reset clears all microarchitectural state and statistics.
func (s *System) Reset() {
	s.net.Reset()
	s.llc.Reset()
	s.ddr.Reset()
	for _, c := range s.l1 {
		c.Reset()
	}
	for i := range s.coreTime {
		s.coreTime[i] = 0
	}
	s.legLat = [numLegs]uint64{}
	s.legCnt = [numLegs]uint64{}
}

// SetObs is the observed behaviour of one iteration set during one nest
// execution: the ground truth behind MAI and CAI.
type SetObs struct {
	// MCMisses[k] counts LLC misses served by MC k.
	MCMisses []float64
	// RegionHits[r] counts shared-LLC hits served by banks in region r
	// (nil for private LLCs).
	RegionHits []float64
	// LLCHits and LLCAccesses give the set's hit fraction (α).
	LLCHits, LLCAccesses float64
}

// NestResult reports one nest execution.
type NestResult struct {
	Cycles     int64  // wall-clock cycles from nest start to barrier
	NetLatency uint64 // network transit cycles added by this nest
	Obs        []SetObs
}

// RunNest executes one parallel nest under the given iteration-set
// assignment. Sets must come from s.Sets(n) (or any partition of the
// nest); assign.Core must have one entry per set. The nest begins after a
// barrier: every core starts at the current global time.
//
// Execution is discrete-event on the region-partitioned window engine
// (see the package comment): each region serves its own events in
// (t, seq) order and regions exchange boundary events and link
// reservations at window ends. Each in-order core keeps one iteration
// in flight, with that iteration's references issued concurrently.
func (s *System) RunNest(n *loop.Nest, sets []loop.IterSet, assign *core.Assignment) NestResult {
	return s.RunNestOn(n, sets, assign, nil)
}

// RunNestOn is RunNest with the barrier restricted to the given cores
// (nil means all cores). Multiprogrammed studies run each application's
// nests on its own core partition: the partitions share the NoC, LLC and
// DRAM but synchronize independently.
func (s *System) RunNestOn(n *loop.Nest, sets []loop.IterSet, assign *core.Assignment, cores []topology.NodeID) NestResult {
	if len(assign.Core) != len(sets) {
		panic(fmt.Sprintf("sim: %d cores assigned for %d sets", len(assign.Core), len(sets)))
	}
	nodes := s.cfg.Mesh.NumNodes()

	// Barrier: the participating cores synchronize at their maximum
	// local time.
	start := int64(0)
	if cores == nil {
		for _, t := range s.coreTime {
			if t > start {
				start = t
			}
		}
		for i := range s.coreTime {
			s.coreTime[i] = start
		}
	} else {
		for _, c := range cores {
			if s.coreTime[c] > start {
				start = s.coreTime[c]
			}
		}
		for _, c := range cores {
			s.coreTime[c] = start
		}
	}
	netBefore := s.net.Stats().TotalLatency

	// Per-set observation vectors are carved from single backing arrays
	// (one for MC misses, one for region hits) instead of 2×len(sets)
	// small allocations; full-slice expressions keep a consumer append
	// from bleeding into the neighbouring set's counts.
	numMCs := s.cfg.Mesh.NumMCs()
	obs := make([]SetObs, len(sets))
	mcBack := make([]float64, len(sets)*numMCs)
	var rhBack []float64
	numRegions := 0
	if s.cfg.LLCOrg == cache.SharedSNUCA {
		numRegions = s.cfg.Mesh.NumRegions()
		rhBack = make([]float64, len(sets)*numRegions)
	}
	for k := range obs {
		obs[k].MCMisses = mcBack[k*numMCs : (k+1)*numMCs : (k+1)*numMCs]
		if rhBack != nil {
			obs[k].RegionHits = rhBack[k*numRegions : (k+1)*numRegions : (k+1)*numRegions]
		}
	}

	// Per-core worklists of set indices, preserving set order, carved
	// from one backing array sized by a counting pass.
	cnt := make([]int, nodes)
	for k := range sets {
		cnt[assign.Core[k]]++
	}
	workBack := make([]int, len(sets))
	work := make([][]int, nodes)
	for c, off := 0, 0; c < nodes; c++ {
		work[c] = workBack[off : off : off+cnt[c]]
		off += cnt[c]
	}
	for k := range sets {
		c := int(assign.Core[k])
		work[c] = append(work[c], k)
	}

	if s.eng == nil {
		s.eng = newEngine(s)
	}
	eng := s.eng
	plan := n.NewStepPlan()
	ivBack := make([]int64, nodes*plan.Dims())
	valBack := make([]int64, nodes*plan.Refs())
	for c := 0; c < nodes; c++ {
		if len(work[c]) > 0 {
			plan.Bind(&eng.step[c], ivBack[c*plan.Dims():], valBack[c*plan.Refs():])
		}
	}
	eng.arm(n, sets, obs, work)
	eng.run()

	end := start
	if cores == nil {
		for _, t := range s.coreTime {
			if t > end {
				end = t
			}
		}
	} else {
		for _, c := range cores {
			if s.coreTime[c] > end {
				end = s.coreTime[c]
			}
		}
	}
	return NestResult{
		Cycles:     end - start,
		NetLatency: s.net.Stats().TotalLatency - netBefore,
		Obs:        obs,
	}
}

// Network legs, for per-leg latency attribution.
const (
	LegReqToBank = iota // shared: core -> home bank request
	LegBankReply        // shared hit: bank -> core data
	LegBankToMC         // shared miss: bank -> MC request
	LegReqToMC          // private miss: core -> MC request
	LegMemReply         // MC -> core data
	numLegs
)

// LegNames labels the leg indices of Stats.LegLatency.
var LegNames = [numLegs]string{"req>bank", "bank>core", "bank>mc", "core>mc", "mc>core"}

// LegStats reports total transit cycles and packet count per network leg.
func (s *System) LegStats() (lat, cnt [numLegs]uint64) {
	return s.legLat, s.legCnt
}

// Stats is the machine-level aggregate view after one or more nests.
type Stats struct {
	NoC  noc.Stats
	DRAM dram.Stats

	L1Hits, L1Misses   uint64
	LLCHits, LLCMisses uint64
}

// L1MissRate returns the global L1 miss ratio.
func (st Stats) L1MissRate() float64 {
	tot := st.L1Hits + st.L1Misses
	if tot == 0 {
		return 0
	}
	return float64(st.L1Misses) / float64(tot)
}

// LLCMissRate returns the global LLC miss ratio.
func (st Stats) LLCMissRate() float64 {
	tot := st.LLCHits + st.LLCMisses
	if tot == 0 {
		return 0
	}
	return float64(st.LLCMisses) / float64(tot)
}

// L1HitFraction returns the fraction of L1 lookups that hit (0 when
// no lookups happened).
func (st Stats) L1HitFraction() float64 {
	return stats.HitFraction(st.L1Hits, st.L1Misses)
}

// LLCHitFraction returns the fraction of LLC lookups that hit (0 when
// no lookups happened).
func (st Stats) LLCHitFraction() float64 {
	return stats.HitFraction(st.LLCHits, st.LLCMisses)
}

// LegSummary is one network leg's aggregate transit accounting: how
// many packets crossed it and their total transit cycles. It is the
// read-only view locmapd surfaces per simulate request; it is
// aggregated from the counters the engine already keeps, never
// sampled per-event.
type LegSummary struct {
	Name        string
	Packets     uint64
	TotalCycles uint64
}

// AvgCycles returns the mean transit latency over the leg (0 when no
// packets crossed it).
func (l LegSummary) AvgCycles() float64 {
	if l.Packets == 0 {
		return 0
	}
	return float64(l.TotalCycles) / float64(l.Packets)
}

// LegSummaries reports every network leg's accounting in LegNames
// order, including legs no packet crossed.
func (s *System) LegSummaries() []LegSummary {
	out := make([]LegSummary, numLegs)
	for i := range out {
		out[i] = LegSummary{
			Name:        LegNames[i],
			Packets:     s.legCnt[i],
			TotalCycles: s.legLat[i],
		}
	}
	return out
}

// Stats returns aggregate statistics since the last Reset.
func (s *System) Stats() Stats {
	st := Stats{NoC: s.net.Stats(), DRAM: s.ddr.Stats()}
	for _, c := range s.l1 {
		h, m := c.Stats()
		st.L1Hits += h
		st.L1Misses += m
	}
	st.LLCHits, st.LLCMisses = s.llc.Stats()
	return st
}

// NodeTraffic aggregates each node's outgoing link loads into a
// row-major W×H grid — the data behind stats.Heatmap congestion views.
func (s *System) NodeTraffic() []float64 {
	loads := s.net.LinkLoads()
	out := make([]float64, s.cfg.Mesh.NumNodes())
	// Links are numbered node*4+dir (see topology link()).
	for l, v := range loads {
		out[l/4] += float64(v)
	}
	return out
}
