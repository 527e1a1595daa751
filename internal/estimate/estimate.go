// Package estimate is locmapd's analytical fast tier: it turns a
// finished compilation into a predicted execution — α, per-leg NoC
// cost, per-nest cycle counts and the improvement over the paper's
// round-robin baseline — without running the event-driven simulator.
//
// The estimator composes three ingredients:
//
//   - the CME capacity walk's per-set MAI/CAI/α affinities, which the
//     compiler already computed for regular nests (internal/cme);
//   - a reuse-distance sketch (sketch.go) that classifies the sampled
//     reference stream of irregular nests, filling the gap the CME
//     walk leaves (it cannot see through index arrays), and letting
//     the mapper predict an assignment the inspector would otherwise
//     only produce at run time;
//   - a first-order, contention-free latency model mirroring the
//     simulator's timing rules: L1 hits cost L1Latency, private-LLC
//     hits L2Latency, shared-LLC hits a NoC round trip to the home
//     bank, and misses add the NoC legs to the memory controller plus
//     a flat DRAM service estimate.
//
// The model deliberately ignores queueing: predicted cycle counts are
// a lower bound whose value is *relative* ordering (which plan, which
// target is faster), not absolute accuracy. The accuracy regression
// test (accuracy_test.go) documents both errors against the simulator.
//
// Results carry an explicit confidence tier. A fresh estimate is
// TierEstimate; after locmapd's background verification simulates the
// same request, the plan is re-tagged TierVerified (the estimate was
// within tolerance) or TierRefined (it was not, and the stored plan
// now carries the simulated numbers).
package estimate

import (
	"math"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/compiler"
	"locmap/internal/core"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/sim"
	"locmap/internal/topology"
)

// Confidence tiers of an analytical plan, in increasing order of
// authority. The zero value is not a tier.
const (
	// TierEstimate marks a plan straight out of the analytical model,
	// not yet checked against the simulator.
	TierEstimate = "estimate"
	// TierVerified marks an estimate the background simulation found
	// within tolerance.
	TierVerified = "verified"
	// TierRefined marks an estimate the background simulation found
	// outside tolerance; the stored plan was corrected with the
	// simulated numbers.
	TierRefined = "refined"
)

// Defaults for the sketch and the latency model.
const (
	defaultSketchRate  = 1.0 / 8
	defaultSketchStack = 4096
	defaultWindowIters = 64
	defaultOverlap     = 4
)

// Config parameterizes an Estimator.
type Config struct {
	// Cfg is the machine description (mesh, LLC organization, NoC and
	// DRAM timing). Required; Mesh must be non-nil.
	Cfg sim.Config

	// Mapper holds the mapping knobs used to *predict* assignments
	// for irregular nests (Mesh defaults to Cfg.Mesh). It must match
	// the knobs the compilation used, or predicted and compiled
	// schedules will disagree.
	Mapper core.Config

	// SketchRate is the reuse-distance sketch's line-sampling rate
	// (default 1/8).
	SketchRate float64

	// SketchStack bounds the sketch's retained LRU stack (default
	// 4096 sampled lines).
	SketchStack int

	// WindowIters caps how many iterations of each iteration set the
	// sketch walks (default 64): consecutive iterations share
	// locality, so a prefix window is representative at a fraction of
	// the cost.
	WindowIters int64

	// Overlap models the per-iteration memory-level parallelism of
	// the simulator's in-order cores (which overlap the references of
	// one iteration): LLC-access stall cycles are divided by it.
	// Default 4.
	Overlap float64
}

// Plan is a predicted execution: the analytical counterpart of a
// simulation result.
type Plan struct {
	Program string `json:"program"`

	// Alpha is the access-weighted predicted LLC hit fraction over
	// the whole program.
	Alpha float64 `json:"alpha"`

	// PredictedCycles is the modelled makespan (slowest core, all
	// timing iterations) under the location-aware schedule;
	// BaselineCycles is the same under round-robin.
	PredictedCycles int64   `json:"predicted_cycles"`
	BaselineCycles  int64   `json:"baseline_cycles"`
	ImprovementPct  float64 `json:"improvement_pct"`

	// TimingIters is the outer timing-loop trip count the totals
	// include (min 1).
	TimingIters int `json:"timing_iters"`

	Nests []NestEstimate `json:"nests"`

	// Legs is the predicted per-leg NoC cost of the location-aware
	// schedule, in sim.LegNames order.
	Legs []LegCost `json:"noc_legs"`
}

// NestEstimate is the per-nest view of a Plan.
type NestEstimate struct {
	Name      string `json:"name"`
	Irregular bool   `json:"irregular,omitempty"`
	Sets      int    `json:"sets"`

	// Alpha is the access-weighted predicted hit fraction.
	Alpha float64 `json:"alpha"`

	// EtaM / EtaC are the weight-averaged affinity errors of the
	// predicted assignment: η(MAI, MAC) and — shared LLCs only —
	// η(CAI, CAC).
	EtaM float64 `json:"eta_m"`
	EtaC float64 `json:"eta_c,omitempty"`

	// LLCRefs is the predicted number of LLC lookups per timing
	// iteration (after the L1 spatial filter).
	LLCRefs float64 `json:"llc_refs"`

	// Cycles / BaselineCycles are the modelled single-execution
	// makespans under the location-aware and round-robin schedules.
	Cycles         int64 `json:"cycles"`
	BaselineCycles int64 `json:"baseline_cycles"`

	// Cores is the predicted set→core schedule whenever the estimator
	// derived one itself: for irregular nests (the decision the
	// inspector would make at run time) and for every nest scored via
	// FromAffinities (the placement search remaps all nests per
	// candidate chip). Nil for regular nests on the FromResult path,
	// whose schedule is already in the compiled plan.
	Cores []int `json:"cores,omitempty"`
}

// LegCost is the predicted traffic over one NoC leg.
type LegCost struct {
	Leg         string  `json:"leg"`
	Packets     float64 `json:"packets"`
	AvgCycles   float64 `json:"avg_cycles"`
	TotalCycles float64 `json:"total_cycles"`
}

// Estimator predicts program executions for one machine description.
// It precomputes the mesh distance tables once; FromResult is then a
// pure arithmetic walk over the compilation's iteration sets. An
// Estimator is not safe for concurrent use (the sketch and the mapper
// carry state); construction is cheap, so create one per request.
type Estimator struct {
	cfg    Config
	mesh   *topology.Mesh
	amap   mem.Map
	mapper *core.Mapper
	shared bool

	perHop   float64 // transit cycles per mesh hop
	dramLat  float64 // flat DRAM service estimate
	capLines int     // capacity model size, in lines
	l1Line   int

	nodeMC     [][]float64 // [node][mc] transit: node ↔ MC attachment
	nodeMCMean []float64   // [node] mean over MCs
	nodeRegion [][]float64 // [node][region] mean transit to the region's banks
	nodeAll    []float64   // [node] mean transit to all banks
	mcBankMean []float64   // [mc] mean transit from any bank to the MC
}

// New builds an estimator for the given machine. It panics if
// Cfg.Mesh is nil, mirroring sim.New: a nil mesh is a programming
// error in a static config.
func New(cfg Config) *Estimator {
	if cfg.Cfg.Mesh == nil {
		panic("estimate: Config.Cfg.Mesh is nil")
	}
	if cfg.Mapper.Mesh == nil {
		cfg.Mapper.Mesh = cfg.Cfg.Mesh
	}
	if cfg.SketchRate == 0 {
		cfg.SketchRate = defaultSketchRate
	}
	if cfg.SketchStack == 0 {
		cfg.SketchStack = defaultSketchStack
	}
	if cfg.WindowIters == 0 {
		cfg.WindowIters = defaultWindowIters
	}
	if cfg.Overlap <= 0 {
		cfg.Overlap = defaultOverlap
	}
	sc := cfg.Cfg
	m := sc.Mesh
	// Resolve the same address map sim.New would install, so the
	// estimator decodes addresses exactly like the machine it predicts.
	amap := sim.AddrMapFor(sc)
	perHop := float64(sc.NoC.RouterCycles + sc.NoC.LinkCycles)
	if sc.NoC.Ideal {
		perHop = 0
	}
	line := sc.L2Line
	if line == 0 {
		line = 64
	}
	capBytes := sc.L2PerCore
	if capBytes == 0 {
		capBytes = 512 << 10
	}
	l1Line := sc.L1Line
	if l1Line == 0 {
		l1Line = 32
	}
	e := &Estimator{
		cfg:      cfg,
		mesh:     m,
		amap:     amap,
		mapper:   core.NewMapper(cfg.Mapper),
		shared:   sc.LLCOrg == cache.SharedSNUCA,
		perHop:   perHop,
		dramLat:  float64(sc.DRAM.Timing.RowEmpty + sc.DRAM.Timing.Burst),
		capLines: capBytes / line,
		l1Line:   l1Line,
	}
	e.buildDistances()
	return e
}

// buildDistances precomputes every expected-transit table the latency
// model consults per iteration set.
func (e *Estimator) buildDistances() {
	m := e.mesh
	nodes, mcs, regs := m.NumNodes(), m.NumMCs(), m.NumRegions()
	e.nodeMC = make([][]float64, nodes)
	e.nodeMCMean = make([]float64, nodes)
	e.nodeRegion = make([][]float64, nodes)
	e.nodeAll = make([]float64, nodes)
	regionNodes := make([][]topology.NodeID, regs)
	for r := range regionNodes {
		regionNodes[r] = m.RegionNodes(topology.RegionID(r))
	}
	for n := 0; n < nodes; n++ {
		e.nodeMC[n] = make([]float64, mcs)
		for mc := 0; mc < mcs; mc++ {
			e.nodeMC[n][mc] = e.perHop * float64(m.DistanceToMC(topology.NodeID(n), topology.MCID(mc)))
			e.nodeMCMean[n] += e.nodeMC[n][mc]
		}
		e.nodeMCMean[n] /= float64(mcs)
		e.nodeRegion[n] = make([]float64, regs)
		for r := 0; r < regs; r++ {
			sum := 0.0
			for _, b := range regionNodes[r] {
				sum += float64(m.Distance(topology.NodeID(n), b))
			}
			e.nodeRegion[n][r] = e.perHop * sum / float64(len(regionNodes[r]))
		}
		sum := 0.0
		for b := 0; b < nodes; b++ {
			sum += float64(m.Distance(topology.NodeID(n), topology.NodeID(b)))
		}
		e.nodeAll[n] = e.perHop * sum / float64(nodes)
	}
	e.mcBankMean = make([]float64, mcs)
	for mc := 0; mc < mcs; mc++ {
		e.mcBankMean[mc] = e.nodeAll[m.MCNode(topology.MCID(mc))]
	}
}

// FromResult predicts the execution of a finished compilation.
// Irregular nests must have their index arrays bound (compile with
// compiler.CompileBound, exactly as the simulation path does) or
// their streams degenerate to a single address.
func (e *Estimator) FromResult(res *compiler.Result) *Plan {
	return e.plan(res, nil)
}

// Affinities extracts the per-nest set affinities of a finished
// compilation in res.Plans order: the CME walk's vectors for regular
// nests, a fresh reuse-distance sketch for irregular ones. The vectors
// depend only on the address interleave and cache capacity — which
// candidate chips in a placement search share — not on where the MCs
// physically sit, so one extraction can be re-scored against hundreds
// of hypothetical topologies via FromAffinities.
func (e *Estimator) Affinities(res *compiler.Result) [][]affinity.SetAffinity {
	sketch := NewSketch(e.cfg.SketchRate, e.cfg.SketchStack)
	out := make([][]affinity.SetAffinity, len(res.Plans))
	for i, np := range res.Plans {
		if np.NeedsInspector {
			out[i] = e.sketchNest(np.Nest, sketch)
		} else {
			out[i] = np.Affinities
		}
	}
	return out
}

// FromAffinities predicts the execution of a compilation against this
// estimator's machine, re-deriving the set→core assignment of every
// nest from pre-extracted affinities instead of trusting the compiled
// schedule. This is the placement search's inner loop: the compiled
// assignment was optimized for the topology the program was compiled
// against, while a candidate chip moves the MCs — so the mapper must
// re-run per candidate for the comparison to measure the chip, not a
// stale schedule. affs must come from Affinities on an estimator that
// shares this one's address map (same interleave, same capacity).
func (e *Estimator) FromAffinities(res *compiler.Result, affs [][]affinity.SetAffinity) *Plan {
	if len(affs) != len(res.Plans) {
		panic("estimate: FromAffinities affinity count does not match compilation")
	}
	return e.plan(res, affs)
}

// plan is the shared prediction walk. With pre == nil it mirrors the
// compilation (compiled affinities and assignments, sketching irregular
// nests); with pre-extracted affinities it remaps every nest.
func (e *Estimator) plan(res *compiler.Result, pre [][]affinity.SetAffinity) *Plan {
	p := res.Program
	iters := p.TimingIters
	if iters < 1 {
		iters = 1
	}
	plan := &Plan{
		Program:     p.Name,
		TimingIters: iters,
		Legs:        make([]LegCost, len(sim.LegNames)),
	}
	for i := range plan.Legs {
		plan.Legs[i].Leg = sim.LegNames[i]
	}
	var sketch *Sketch
	if pre == nil {
		sketch = NewSketch(e.cfg.SketchRate, e.cfg.SketchStack)
	}
	var legs [len(sim.LegNames)]legAcc
	var alphaAcc, accTotal float64
	var mapped, baseline int64
	for i, np := range res.Plans {
		var affs []affinity.SetAffinity
		var assign *core.Assignment
		remapped := true
		switch {
		case pre != nil:
			affs = pre[i]
			assign = e.mapper.Map(affs, e.shared)
		case np.NeedsInspector:
			affs = e.sketchNest(np.Nest, sketch)
			assign = e.mapper.Map(affs, e.shared)
		default:
			affs = np.Affinities
			assign = np.Assignment
			remapped = false
		}
		def := core.DefaultSchedule(e.mesh, len(affs))
		nc := e.nestCost(np.Nest, affs, assign, &legs)
		base := e.nestCost(np.Nest, affs, def, nil)
		ne := NestEstimate{
			Name:           np.Nest.Name,
			Irregular:      np.NeedsInspector,
			Sets:           len(affs),
			Alpha:          nc.alpha,
			EtaM:           nc.etaM,
			EtaC:           nc.etaC,
			LLCRefs:        nc.llcRefs,
			Cycles:         nc.cycles,
			BaselineCycles: base.cycles,
		}
		if remapped {
			ne.Cores = make([]int, len(assign.Core))
			for k, c := range assign.Core {
				ne.Cores[k] = int(c)
			}
		}
		plan.Nests = append(plan.Nests, ne)
		mapped += nc.cycles
		baseline += base.cycles
		alphaAcc += nc.alpha * nc.llcRefs
		accTotal += nc.llcRefs
	}
	plan.PredictedCycles = mapped * int64(iters)
	plan.BaselineCycles = baseline * int64(iters)
	if baseline > 0 {
		plan.ImprovementPct = 100 * float64(baseline-mapped) / float64(baseline)
	}
	if accTotal > 0 {
		plan.Alpha = alphaAcc / accTotal
	}
	ti := float64(iters)
	for i := range plan.Legs {
		plan.Legs[i].Packets = legs[i].packets * ti
		plan.Legs[i].TotalCycles = legs[i].cycles * ti
		if legs[i].packets > 0 {
			plan.Legs[i].AvgCycles = legs[i].cycles / legs[i].packets
		}
	}
	return plan
}

// legAcc accumulates predicted packets and transit cycles per leg.
type legAcc struct {
	packets float64
	cycles  float64
}

// nestResult is nestCost's aggregate for one (nest, schedule) pair.
type nestResult struct {
	cycles  int64
	alpha   float64
	etaM    float64
	etaC    float64
	llcRefs float64
}

// l1Filter returns the fraction of a reference's accesses expected to
// reach the LLC after L1 spatial filtering: unit-stride streams touch
// a new L1 line every line/stride iterations, loop-invariant
// references stay in L1, and irregular references (random lines, no
// spatial reuse) all reach the LLC.
func (e *Estimator) l1Filter(r *loop.Ref) float64 {
	if r.Irregular {
		return 1
	}
	stride := r.Index.InnerStride() * int64(r.Array.ElemSize)
	if stride == 0 {
		return 0
	}
	f := math.Abs(float64(stride)) / float64(e.l1Line)
	if f > 1 {
		return 1
	}
	return f
}

// nestCost runs the latency model over one nest under one schedule,
// optionally accumulating per-leg traffic. The makespan is the busiest
// core's total: per-iteration work plus L1 issue cost, plus the
// expected LLC hit/miss service times of the set's filtered accesses,
// divided by the modelled per-iteration overlap.
func (e *Estimator) nestCost(n *loop.Nest, affs []affinity.SetAffinity, assign *core.Assignment, legs *[len(sim.LegNames)]legAcc) nestResult {
	sc := e.cfg.Cfg
	l1Lat := float64(sc.L1Latency)
	if l1Lat == 0 {
		l1Lat = 1
	}
	l2Lat := float64(sc.L2Latency)
	if l2Lat == 0 {
		l2Lat = 6
	}
	perIterLLC := 0.0
	for i := range n.Refs {
		perIterLLC += e.l1Filter(&n.Refs[i])
	}
	iterBase := float64(n.WorkCycles) + float64(len(n.Refs))*l1Lat

	busy := make([]float64, e.mesh.NumNodes())
	var res nestResult
	var alphaAcc, etaMAcc, etaCAcc, wTotal float64
	macs, cacs := e.mapper.MAC(), e.mapper.CAC()
	for k := range affs {
		sa := &affs[k]
		c := int(assign.Core[k])
		reg := int(assign.Region[k])
		w := float64(sa.Weight)
		acc := w * perIterLLC
		alpha := sa.Alpha

		var hitLat, missLat float64
		var dHit, dMissReq, dBankMC, dMCCore float64
		if !e.shared {
			hitLat = l2Lat
			dMCCore = e.expectMC(sa.MAI, c)
			missLat = l2Lat + 2*dMCCore + e.dramLat
		} else {
			dHit = e.expectRegion(sa.CAI, c)
			hitLat = 2*dHit + l2Lat
			dMissReq = e.nodeAll[c]
			dBankMC = e.expectBankMC(sa.MAI)
			dMCCore = e.expectMC(sa.MAI, c)
			missLat = dMissReq + l2Lat + dBankMC + e.dramLat + dMCCore
		}
		hits := acc * alpha
		misses := acc - hits
		busy[c] += w*iterBase + (hits*hitLat+misses*missLat)/e.cfg.Overlap

		if legs != nil {
			if !e.shared {
				legs[sim.LegReqToMC].add(misses, misses*dMCCore)
				legs[sim.LegMemReply].add(misses, misses*dMCCore)
			} else {
				legs[sim.LegReqToBank].add(hits, hits*dHit)
				legs[sim.LegBankReply].add(hits, hits*dHit)
				legs[sim.LegReqToBank].add(misses, misses*dMissReq)
				legs[sim.LegBankToMC].add(misses, misses*dBankMC)
				legs[sim.LegMemReply].add(misses, misses*dMCCore)
			}
		}

		alphaAcc += alpha * w
		if len(sa.MAI) == len(macs[reg]) {
			etaMAcc += affinity.Eta(sa.MAI, macs[reg]) * w
		}
		if e.shared && len(sa.CAI) == len(cacs[reg]) {
			etaCAcc += affinity.Eta(sa.CAI, cacs[reg]) * w
		}
		wTotal += w
	}
	for _, b := range busy {
		if cy := int64(math.Ceil(b)); cy > res.cycles {
			res.cycles = cy
		}
	}
	res.llcRefs = 0
	for k := range affs {
		res.llcRefs += float64(affs[k].Weight) * perIterLLC
	}
	if wTotal > 0 {
		res.alpha = alphaAcc / wTotal
		res.etaM = etaMAcc / wTotal
		res.etaC = etaCAcc / wTotal
	}
	return res
}

func (l *legAcc) add(packets, cycles float64) {
	l.packets += packets
	l.cycles += cycles
}

// expectMC returns the expected core↔MC transit for a set on core c,
// weighting the per-MC distances by the set's MAI (uniform when the
// set recorded no misses).
func (e *Estimator) expectMC(mai affinity.Vector, c int) float64 {
	if len(mai) != len(e.nodeMC[c]) || mai.Sum() == 0 {
		return e.nodeMCMean[c]
	}
	d := 0.0
	for mc, w := range mai {
		d += w * e.nodeMC[c][mc]
	}
	return d
}

// expectRegion returns the expected core↔home-bank transit for hits,
// weighting per-region distances by the set's CAI (uniform over all
// banks when the set recorded no hits).
func (e *Estimator) expectRegion(cai affinity.Vector, c int) float64 {
	if len(cai) != len(e.nodeRegion[c]) || cai.Sum() == 0 {
		return e.nodeAll[c]
	}
	d := 0.0
	for r, w := range cai {
		d += w * e.nodeRegion[c][r]
	}
	return d
}

// expectBankMC returns the expected home-bank→MC transit for shared
// misses: home banks are line-interleaved over all nodes, so the bank
// side is uniform and only the MC side is MAI-weighted.
func (e *Estimator) expectBankMC(mai affinity.Vector) float64 {
	if len(mai) != len(e.mcBankMean) || mai.Sum() == 0 {
		d := 0.0
		for _, v := range e.mcBankMean {
			d += v
		}
		return d / float64(len(e.mcBankMean))
	}
	d := 0.0
	for mc, w := range mai {
		d += w * e.mcBankMean[mc]
	}
	return d
}

// sketchNest predicts per-set affinities for an irregular nest by
// walking a prefix window of each iteration set's full reference
// stream (regular and irregular references alike) through the
// reuse-distance sketch. Sampled accesses whose estimated reuse
// distance fits the capacity model count as hits attributed to their
// home bank's region; the rest count as misses attributed to their
// MC. The sketch stays warm across sets and nests, mirroring how the
// CME capacity model persists across a program.
func (e *Estimator) sketchNest(n *loop.Nest, sk *Sketch) []affinity.SetAffinity {
	sets := n.IterationSets(e.cfg.Cfg.IterSetFrac)
	out := make([]affinity.SetAffinity, len(sets))
	nmc := e.amap.NumMCs()
	nreg := e.mesh.NumRegions()
	nodes := e.mesh.NumNodes()
	line := uint64(e.cfg.Cfg.L2Line)
	if line == 0 {
		line = 64
	}
	capDist := float64(e.capLines)

	lastL1 := make([]mem.Addr, len(n.Refs))
	seen := make([]bool, len(n.Refs))
	var iv []int64
	for k, set := range sets {
		mai := affinity.NewBuilder(nmc)
		var cai *affinity.Builder
		if e.shared {
			cai = affinity.NewBuilder(nreg)
		}
		var hits, total float64
		hi := set.Hi
		if w := set.Lo + e.cfg.WindowIters; w < hi {
			hi = w
		}
		for flat := set.Lo; flat < hi; flat++ {
			iv = n.Unflatten(iv, flat)
			for r := range n.Refs {
				ref := &n.Refs[r]
				addr := ref.Addr(iv, flat)
				l1line := addr / mem.Addr(e.l1Line)
				if seen[r] && l1line == lastL1[r] {
					continue
				}
				seen[r] = true
				lastL1[r] = l1line
				sampled, dist := sk.Access(uint64(addr) / line)
				if !sampled {
					continue
				}
				total++
				if dist < capDist {
					hits++
					if e.shared {
						bank := e.amap.HomeBank(addr) % nodes
						cai.AddOne(int(e.mesh.RegionOf(topology.NodeID(bank))))
					}
				} else {
					mai.AddOne(e.amap.MC(addr))
				}
			}
		}
		sa := affinity.SetAffinity{
			MAI:    mai.Vector(),
			Alpha:  affinity.Alpha(hits, total),
			Weight: set.Len(),
		}
		if e.shared {
			sa.CAI = cai.Vector()
		}
		out[k] = sa
	}
	return out
}
