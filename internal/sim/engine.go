package sim

import (
	"math"

	"locmap/internal/cache"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/noc"
	"locmap/internal/topology"
)

// windowCycles is the region engine's window W: each round, every
// region drains its local event heap up to the global horizon T+W
// before reservations and boundary events are exchanged. All event
// timestamps stay exact regardless of W (see the package comment);
// only the staleness of *foreign* link reservations is bounded by
// roughly one window. W is a fixed model parameter, not a tuning knob:
// changing it changes the simulated contention interleaving and
// therefore requires re-derived goldens, exactly like a
// timing-parameter change. 64 cycles keeps foreign-reservation
// staleness well under one network round trip, so contention results
// track the fully-serialized schedule closely.
const windowCycles int64 = 64

// Event stages of one data reference's lifetime, and the region that
// owns each stage (the region whose heap serves it):
//
//	stIssue     core's region   — execute work, probe L1 and (private) LLC
//	stToBank    bank's region   — shared: request arrives, probe home bank
//	stBankReply core's region   — shared hit: data arrives back at the core
//	stBankToMC  MC's region     — shared miss: request arrives at the MC
//	stToMC      MC's region     — private miss: request arrives at the MC
//	stMemReply  core's region   — data arrives from the MC at the core
//
// Ownership is chosen so every piece of mutable state (a core's L1 and
// loop cursor, a bank's tags, an MC's DRAM timing) is touched only by
// events of one region: a region's window depends on other regions
// only through the boundary events and folded link reservations of
// earlier windows.
const (
	stIssue = iota
	stToBank
	stBankReply
	stBankToMC
	stToMC
	stMemReply
)

// event is kept small (48 bytes) because the scheduler's sift operations
// copy whole events; narrow index fields nearly halve the memory traffic
// of every push/pop.
type event struct {
	t    int64
	seq  uint64 // FIFO tie-break for equal-t events (see package comment)
	addr mem.Addr

	core  int32
	stage int32
	bank  int32
	mc    int32
	k     int32 // iteration-set index (for observations)
	dst   int32 // owning region, set while the event waits in the boundary buffer
}

// before reports whether a precedes b in a region's event queue:
// earlier simulated time first, and for equal times the event enqueued
// first. The explicit sequence number makes equal-timestamp ordering a
// documented contract instead of an artifact of heap internals.
func (a *event) before(b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// shard is one region's share of the simulation: its own event heap and
// sequence counter, its view of the link-reservation state, and private
// statistic accumulators.
type shard struct {
	region int32
	heap   []event
	seq    uint64
	view   *noc.ShardView

	// legLat/legCnt accumulate per-leg latency locally; merged into the
	// System once per run.
	legLat [numLegs]uint64
	legCnt [numLegs]uint64

	// addrBuf/hitBuf are issue()'s scratch for batched L1 lookups.
	addrBuf []mem.Addr
	hitBuf  []bool
}

// push enqueues ev with the shard's next sequence number.
// push and pop sift a hole instead of swapping, so each level costs one
// event copy rather than two. The heap's pop order is fully determined
// by the (t, seq) total order, so the sift strategy — or any future
// queue implementation — cannot change simulation results.
func (sh *shard) push(ev event) {
	ev.seq = sh.seq
	sh.seq++
	h := append(sh.heap, ev)
	sh.heap = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].before(&ev) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (sh *shard) pop() event {
	h := sh.heap
	top := h[0]
	last := len(h) - 1
	x := h[last]
	h = h[:last]
	sh.heap = h
	i, n := 0, last
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(&h[l]) {
			l = r
		}
		if !h[l].before(&x) {
			break
		}
		h[i] = h[l]
		i = l
	}
	if n > 0 {
		h[i] = x
	}
	return top
}

// engine drives nests to completion as a set of region shards advancing
// in lock-stepped time windows. The engine is persistent per System —
// shards, views and the boundary buffer are allocated once — and
// re-armed with per-run state by each RunNestOn call. The schedule
// (which events run in which window, and in what order per shard) is a
// pure function of the region structure.
type engine struct {
	sys *System

	// Static partition tables.
	regionOf []int32 // node -> region
	mcRegion []int32 // MC -> region of its node

	shards []*shard

	// boundary holds the events shards emitted into other regions
	// during the current window, in emission order. Shards drain one
	// after another in region order, so the buffer is ordered by
	// (source region, FIFO) — the order deliver stamps into each
	// destination heap.
	boundary []event

	// Per-run state (re-armed by RunNestOn).
	nest        *loop.Nest
	sets        []loop.IterSet
	obs         []SetObs
	work        [][]int
	next        []int          // per-core index into work
	cur         []int64        // per-core current flat iteration
	step        []loop.Stepper // per-core incremental address generator
	outstanding []int          // per-core in-flight references
	doneAt      []int64        // per-core max completion time of the iteration
}

// newEngine builds the partition tables and one shard per region. A
// mesh without a region grid (RegionsX/Y unset) collapses to a single
// region, which reduces the engine to a plain sequential (t, seq) run.
func newEngine(s *System) *engine {
	mesh := s.cfg.Mesh
	nodes := mesh.NumNodes()
	numRegions := mesh.NumRegions()
	if numRegions < 1 {
		numRegions = 1
	}
	e := &engine{
		sys:         s,
		regionOf:    make([]int32, nodes),
		mcRegion:    make([]int32, mesh.NumMCs()),
		shards:      make([]*shard, numRegions),
		next:        make([]int, nodes),
		cur:         make([]int64, nodes),
		step:        make([]loop.Stepper, nodes),
		outstanding: make([]int, nodes),
		doneAt:      make([]int64, nodes),
	}
	for n := 0; n < nodes; n++ {
		if numRegions > 1 {
			e.regionOf[n] = int32(mesh.RegionOf(topology.NodeID(n)))
		}
	}
	for mc := range e.mcRegion {
		e.mcRegion[mc] = e.regionOf[s.mcNode[mc]]
	}
	for r := range e.shards {
		e.shards[r] = &shard{
			region: int32(r),
			view:   s.net.NewShardView(),
		}
	}
	return e
}

// arm installs one nest run's state and seeds the initial issue events.
func (e *engine) arm(n *loop.Nest, sets []loop.IterSet, obs []SetObs, work [][]int) {
	s := e.sys
	e.nest, e.sets, e.obs, e.work = n, sets, obs, work
	for _, sh := range e.shards {
		sh.heap = sh.heap[:0]
		sh.seq = 0
		if cap(sh.addrBuf) < len(n.Refs) {
			sh.addrBuf = make([]mem.Addr, len(n.Refs))
			sh.hitBuf = make([]bool, len(n.Refs))
		}
		sh.addrBuf = sh.addrBuf[:len(n.Refs)]
		sh.hitBuf = sh.hitBuf[:len(n.Refs)]
	}
	for c := range e.work {
		e.next[c] = 0
		e.outstanding[c] = 0
		e.doneAt[c] = 0
		if len(e.work[c]) > 0 {
			e.cur[c] = sets[work[c][0]].Lo
			e.step[c].SeekTo(e.cur[c])
			e.shards[e.regionOf[c]].push(event{t: s.coreTime[c], core: int32(c), stage: stIssue})
		}
	}
}

// emit routes a freshly produced event to its owning region: into this
// shard's heap when local, into the boundary buffer when it crosses a
// region boundary (delivered at the window's end).
func (e *engine) emit(sh *shard, region int32, ev event) {
	if region == sh.region {
		sh.push(ev)
		return
	}
	ev.dst = region
	e.boundary = append(e.boundary, ev)
}

// drain serves the shard's events with t < end in (t, seq) order.
// Events a handler pushes locally join the same window if their time
// falls under the horizon.
func (e *engine) drain(sh *shard, end int64) {
	for len(sh.heap) > 0 && sh.heap[0].t < end {
		ev := sh.pop()
		switch ev.stage {
		case stIssue:
			e.issue(sh, int(ev.core))
		case stToBank:
			e.toBank(sh, ev)
		case stBankReply:
			e.bankReply(sh, ev)
		case stBankToMC:
			e.bankToMC(sh, ev)
		case stToMC:
			e.toMC(sh, ev)
		case stMemReply:
			e.memReply(sh, ev)
		}
	}
}

// deliver moves the window's boundary events into their destination
// heaps in buffer order, stamping arrival sequence numbers in
// (source region, FIFO) order per destination — the deterministic merge
// the package comment documents.
func (e *engine) deliver() {
	for _, ev := range e.boundary {
		e.shards[ev.dst].push(ev)
	}
	e.boundary = e.boundary[:0]
}

// horizon returns the end of the next window: the earliest pending
// event anywhere plus windowCycles. ok is false once every heap is
// empty.
func (e *engine) horizon() (end int64, ok bool) {
	minT := int64(math.MaxInt64)
	for _, sh := range e.shards {
		if len(sh.heap) > 0 && sh.heap[0].t < minT {
			minT = sh.heap[0].t
		}
	}
	if minT == math.MaxInt64 {
		return 0, false
	}
	return minT + windowCycles, true
}

// run executes the armed nest window by window: every shard drains up
// to the horizon in region order, then the shards' link reservations
// are folded in region order and the boundary events delivered.
func (e *engine) run() {
	for end, ok := e.horizon(); ok; end, ok = e.horizon() {
		for _, sh := range e.shards {
			sh.view.BeginWindow()
			e.drain(sh, end)
		}
		for _, sh := range e.shards {
			sh.view.Fold()
		}
		e.deliver()
	}
	// Merge shard statistics: every counter is a pure sum.
	s := e.sys
	for _, sh := range e.shards {
		sh.view.FlushStats()
		for i := 0; i < numLegs; i++ {
			s.legLat[i] += sh.legLat[i]
			s.legCnt[i] += sh.legCnt[i]
			sh.legLat[i] = 0
			sh.legCnt[i] = 0
		}
	}
}

// resume records the completion of one in-flight reference at time t;
// when the iteration's last reference lands, the core commits it and
// issues the next iteration. Always runs on the core's own shard.
func (e *engine) resume(sh *shard, c int, t int64) {
	if t > e.doneAt[c] {
		e.doneAt[c] = t
	}
	e.outstanding[c]--
	if e.outstanding[c] > 0 {
		return
	}
	s := e.sys
	s.coreTime[c] = e.doneAt[c]
	e.cur[c]++
	k := e.work[c][e.next[c]]
	if e.cur[c] >= e.sets[k].Hi {
		e.next[c]++
		if e.next[c] >= len(e.work[c]) {
			return // core done with this nest
		}
		e.cur[c] = e.sets[e.work[c][e.next[c]]].Lo
		e.step[c].SeekTo(e.cur[c])
	} else {
		e.step[c].Step()
	}
	sh.push(event{t: s.coreTime[c], core: int32(c), stage: stIssue})
}

// issue commits one iteration's compute and launches all of its data
// references concurrently (compiler-scheduled loads behind MSHRs). The
// iteration retires when its slowest reference lands. The references
// issue at the same cycle, so their L1 lookups go through the tag
// store as one batch.
func (e *engine) issue(sh *shard, c int) {
	s := e.sys
	n := e.nest
	k := e.work[c][e.next[c]]
	st := &e.step[c]
	// Branches and variable-latency arithmetic make real iterations
	// jitter by a few percent; without it the nest barrier phase-locks
	// all cores and every "round" slams the DRAM banks simultaneously.
	work := n.WorkCycles
	if work >= 8 {
		h := uint64(c+1)*0x9e3779b97f4a7c15 ^ uint64(e.cur[c])*0xbf58476d1ce4e5b9
		h ^= h >> 29
		work += int64(h % uint64(work/4))
	}
	t := s.coreTime[c] + work
	ob := &e.obs[k]

	e.outstanding[c] = len(n.Refs) + 1
	e.doneAt[c] = t
	addrs, hits := sh.addrBuf, sh.hitBuf
	for ri := range n.Refs {
		addrs[ri] = st.Addr(ri)
	}
	s.l1[c].AccessBatch(addrs, hits)
	for ri := range n.Refs {
		addr := addrs[ri]
		tt := t + s.cfg.L1Latency
		if hits[ri] {
			e.resume(sh, c, tt)
			continue
		}
		ob.LLCAccesses++

		if s.cfg.LLCOrg == cache.Private {
			tt += s.cfg.L2Latency
			if s.llc.AccessBank(c, addr) {
				ob.LLCHits++
				e.resume(sh, c, tt)
				continue
			}
			mc := s.amap.MC(addr)
			e.emit(sh, e.mcRegion[mc], event{t: tt, core: int32(c), stage: stToMC, addr: addr, mc: int32(mc), k: int32(k)})
			continue
		}

		// Shared S-NUCA: the request travels to the home bank, whose
		// region probes the tags on arrival (stToBank).
		bank := s.llc.HomeBank(c, addr)
		e.emit(sh, e.regionOf[bank], event{t: tt, core: int32(c), stage: stToBank, addr: addr, bank: int32(bank), k: int32(k)})
	}
	// The +1 guard retires the iteration even if every ref hit in L1.
	e.resume(sh, c, t)
}

// toBank serves a shared-LLC request arriving at its home bank: walk
// the core→bank leg, probe the bank's tags, and either send the data
// back or forward the miss to the MC.
func (e *engine) toBank(sh *shard, ev event) {
	s := e.sys
	t := sh.view.Send(topology.NodeID(ev.core), topology.NodeID(ev.bank), ev.t, noc.Request)
	sh.leg(LegReqToBank, t-ev.t)
	t += s.cfg.L2Latency
	if s.llc.AccessBank(int(ev.bank), ev.addr) {
		e.emit(sh, e.regionOf[ev.core], event{t: t, core: ev.core, stage: stBankReply, bank: ev.bank, k: ev.k})
	} else {
		mc := s.amap.MC(ev.addr)
		e.emit(sh, e.mcRegion[mc], event{t: t, core: ev.core, stage: stBankToMC, addr: ev.addr, bank: ev.bank, mc: int32(mc), k: ev.k})
	}
}

// bankReply lands hit data back at the core; the hit is attributed to
// the serving bank's region here, on the core's shard, so every
// observation cell is written by exactly one region.
func (e *engine) bankReply(sh *shard, ev event) {
	s := e.sys
	t := sh.view.Send(topology.NodeID(ev.bank), topology.NodeID(ev.core), ev.t, noc.Data)
	sh.leg(LegBankReply, t-ev.t)
	ob := &e.obs[ev.k]
	ob.LLCHits++
	ob.RegionHits[s.cfg.Mesh.RegionOf(topology.NodeID(ev.bank))]++
	e.resume(sh, int(ev.core), t)
}

func (e *engine) bankToMC(sh *shard, ev event) {
	s := e.sys
	t := sh.view.Send(topology.NodeID(ev.bank), s.mcNode[ev.mc], ev.t, noc.Request)
	sh.leg(LegBankToMC, t-ev.t)
	done := s.ddr.Request(int(ev.mc), ev.addr, t)
	e.emit(sh, e.regionOf[ev.core], event{t: done, core: ev.core, stage: stMemReply, mc: ev.mc, k: ev.k})
}

func (e *engine) toMC(sh *shard, ev event) {
	s := e.sys
	t := sh.view.Send(topology.NodeID(ev.core), s.mcNode[ev.mc], ev.t, noc.Request)
	sh.leg(LegReqToMC, t-ev.t)
	done := s.ddr.Request(int(ev.mc), ev.addr, t)
	e.emit(sh, e.regionOf[ev.core], event{t: done, core: ev.core, stage: stMemReply, mc: ev.mc, k: ev.k})
}

// memReply lands miss data back at the core and attributes the miss to
// the serving MC — on the core's shard, like bankReply.
func (e *engine) memReply(sh *shard, ev event) {
	t := sh.view.Send(e.sys.mcNode[ev.mc], topology.NodeID(ev.core), ev.t, noc.Data)
	sh.leg(LegMemReply, t-ev.t)
	e.obs[ev.k].MCMisses[ev.mc]++
	e.resume(sh, int(ev.core), t)
}

// leg records one network-leg transit in the shard's local counters.
func (sh *shard) leg(kind int, cycles int64) {
	sh.legLat[kind] += uint64(cycles)
	sh.legCnt[kind]++
}
