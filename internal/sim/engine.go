package sim

import (
	"math"
	"sync"

	"locmap/internal/cache"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/noc"
	"locmap/internal/topology"
)

// windowCycles is the region engine's synchronization window W: each
// round, every region drains its local event heap up to the global
// horizon T+W before reservations and boundary events are exchanged.
// W trades synchronization overhead against contention freshness — all
// event timestamps stay exact regardless of W (see the package
// comment's determinism argument); only the staleness of *foreign*
// link reservations is bounded by roughly one window. W is a fixed
// model parameter, not a tuning knob: changing it changes the
// simulated contention interleaving and therefore requires re-derived
// goldens, exactly like a timing-parameter change. 64 cycles keeps
// foreign-reservation staleness well under one network round trip, so
// contention results track the fully-serialized schedule closely while
// still amortizing dozens of events per region per window.
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
// events of one region, which is what makes region-parallel execution
// race-free without locks.
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
}

// before reports whether a precedes b in a region's event queue:
// earlier simulated time first, and for equal times the event enqueued
// first. The explicit sequence number makes equal-timestamp ordering a
// documented contract instead of an artifact of heap internals.
func (a *event) before(b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// shard is one region's share of the simulation: its own event heap and
// sequence counter, its view of the link-reservation state, per-pair
// outboxes for events it emits into other regions, and private
// statistic accumulators. During a window a shard is touched by exactly
// one worker.
type shard struct {
	region int32
	heap   []event
	seq    uint64
	view   *noc.ShardView

	// out[d] buffers events this shard emitted for region d during the
	// current window; they are delivered (and sequence-stamped) by d's
	// owner at the window barrier, in source-region order.
	out [][]event

	// minT caches the heap-top time after delivery; the barrier's
	// serial section reduces it to the next global window start.
	minT int64

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
// shards, views and outboxes are allocated once — and re-armed with
// per-run state by each RunNestOn call. The logical schedule (which
// events run in which window, and in what order per shard) depends only
// on the region structure, never on the worker count: workers merely
// multiplex shards, so any workers value produces bit-identical tables.
type engine struct {
	sys *System

	// Static partition tables.
	numRegions int
	regionOf   []int32 // node -> region
	linkRegion []int32 // directed link -> owning region (its source node's)
	mcRegion   []int32 // MC -> region of its node

	shards []*shard

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

	// Parallel-run coordination: windowEnd and done are written only in
	// the barrier's serial section.
	windowEnd int64
	done      bool
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
		numRegions:  numRegions,
		regionOf:    make([]int32, nodes),
		linkRegion:  make([]int32, mesh.NumLinks()),
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
	dirsPerNode := mesh.NumLinks() / nodes
	for l := range e.linkRegion {
		e.linkRegion[l] = e.regionOf[l/dirsPerNode]
	}
	for mc := range e.mcRegion {
		e.mcRegion[mc] = e.regionOf[s.mcNode[mc]]
	}
	for r := range e.shards {
		e.shards[r] = &shard{
			region: int32(r),
			view:   s.net.NewShardView(),
			out:    make([][]event, numRegions),
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
// shard's heap when local, into the per-pair outbox when it crosses a
// region boundary (delivered at the window barrier).
func (e *engine) emit(sh *shard, region int32, ev event) {
	if region == sh.region {
		sh.push(ev)
		return
	}
	sh.out[region] = append(sh.out[region], ev)
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

// deliver moves region d's inbound boundary events from every source
// shard's outbox into d's heap, stamping arrival sequence numbers in
// (source region, FIFO) order — the deterministic merge the package
// comment documents. Only d's owner calls it, between barriers.
func (e *engine) deliver(d int) {
	dst := e.shards[d]
	for _, src := range e.shards {
		box := src.out[d]
		for _, ev := range box {
			dst.push(ev)
		}
		src.out[d] = box[:0]
	}
	if len(dst.heap) > 0 {
		dst.minT = dst.heap[0].t
	} else {
		dst.minT = math.MaxInt64
	}
}

// advanceWindow reduces the shards' post-delivery heap-top times to the
// next window horizon. Runs in the barrier's serial section (or inline
// when serial).
func (e *engine) advanceWindow() {
	minT := int64(math.MaxInt64)
	for _, sh := range e.shards {
		if sh.minT < minT {
			minT = sh.minT
		}
	}
	if minT == math.MaxInt64 {
		e.done = true
		return
	}
	e.windowEnd = minT + windowCycles
}

// run executes the armed nest. workers is the resolved goroutine count
// (already clamped to the region count); any value produces the same
// logical schedule.
func (e *engine) run(workers int) {
	e.done = false
	for _, sh := range e.shards {
		if len(sh.heap) > 0 {
			sh.minT = sh.heap[0].t
		} else {
			sh.minT = math.MaxInt64
		}
	}
	e.advanceWindow()
	if workers <= 1 {
		e.runSerial()
	} else {
		e.runParallel(workers)
	}
	// Merge shard statistics. Serial and deterministic: every counter
	// is a pure sum, so the merge order cannot affect results.
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

// runSerial is the worker-free window loop: identical schedule to the
// parallel path (shards still interact only through folds and outbox
// delivery at window boundaries), minus goroutines and barriers.
func (e *engine) runSerial() {
	for !e.done {
		end := e.windowEnd
		for _, sh := range e.shards {
			sh.view.BeginWindow()
			e.drain(sh, end)
		}
		for _, sh := range e.shards {
			sh.view.Fold(nil)
		}
		for d := range e.shards {
			e.deliver(d)
		}
		e.advanceWindow()
	}
}

// runParallel multiplexes the shards over `workers` goroutines with a
// two-phase window barrier:
//
//	phase A  each worker drains its shards up to the shared horizon,
//	         routing boundary events into outboxes;
//	phase B  each worker folds every shard's link reservations for the
//	         links its regions own, delivers its shards' inboxes, and
//	         reports its heap-top times; the last arriver reduces them
//	         to the next horizon.
//
// Shard ownership is static (region % workers), so the schedule —
// and therefore every table — is independent of the worker count.
func (e *engine) runParallel(workers int) {
	b := newBarrier(workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.worker(w, workers, b)
		}(w)
	}
	e.worker(0, workers, b)
	wg.Wait()
}

func (e *engine) worker(w, workers int, b *barrier) {
	ownsLink := func(l topology.LinkID) bool {
		return int(e.linkRegion[l])%workers == w
	}
	for !e.done {
		end := e.windowEnd
		for r := w; r < e.numRegions; r += workers {
			sh := e.shards[r]
			sh.view.BeginWindow()
			e.drain(sh, end)
		}
		b.wait(nil)
		// Fold every shard's dirty links that this worker's regions
		// own: the link partition makes concurrent folds disjoint, and
		// for any one link every fold runs here, in region order, so
		// the merged result is independent of the worker count (see
		// noc.ShardView.Fold).
		for _, sh := range e.shards {
			sh.view.Fold(ownsLink)
		}
		for r := w; r < e.numRegions; r += workers {
			e.deliver(r)
		}
		b.wait(e.advanceWindow)
	}
}

// barrier is a reusable generation-counted barrier; the last arriver
// runs the serial closure before releasing the others. Waiters park on
// a condition variable rather than spinning, so oversubscribed hosts
// (workers > GOMAXPROCS) degrade gracefully.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(serial func()) {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		if serial != nil {
			serial()
		}
		b.arrived = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
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
