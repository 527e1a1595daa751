// Package dram models the off-chip memory system behind each memory
// controller: DDR3/DDR4 channels with banks and an open-page row buffer.
// Requests are timed with a small fixed-point model — row-buffer hits pay
// only column access latency, row-buffer conflicts pay precharge +
// activate + column access — plus queueing delay on the bank and channel.
//
// All times are in on-chip-network clock cycles (1 GHz in Table 4), so the
// system simulator can add DRAM service time directly onto packet
// timestamps.
package dram

import "locmap/internal/mem"

// Timing holds the DRAM latency parameters in NoC cycles.
type Timing struct {
	Name string
	// RowHit is the column access latency when the row is open.
	RowHit int64
	// RowConflict is precharge+activate+column when another row is open.
	RowConflict int64
	// RowEmpty is activate+column when the bank has no open row.
	RowEmpty int64
	// Burst is the data transfer (channel occupancy) time per request.
	Burst int64
}

// DDR3 returns DDR3-1333-like timing (Table 4 default).
func DDR3() Timing {
	return Timing{Name: "DDR3-1333", RowHit: 14, RowConflict: 42, RowEmpty: 28, Burst: 4}
}

// DDR4 returns DDR4-2133-like timing (Figure 12 variant): lower device
// latencies and a shorter burst.
func DDR4() Timing {
	return Timing{Name: "DDR4-2133", RowHit: 11, RowConflict: 33, RowEmpty: 22, Burst: 3}
}

// Config describes the memory system shape.
type Config struct {
	Timing       Timing
	MCs          int
	BanksPerMC   int   // Table 4: 8 banks per rank, 1 rank per channel
	RowBufBytes  int64 // Table 4: 2KB row buffer
	QueueEntries int   // request buffer entries per MC (Table 4: 250)
}

// DefaultConfig returns the Table 4 memory system.
func DefaultConfig() Config {
	return Config{Timing: DDR3(), MCs: 4, BanksPerMC: 8, RowBufBytes: 2048, QueueEntries: 250}
}

type bank struct {
	openRow   int64 // -1 when closed
	busyUntil int64
}

type controller struct {
	banks       []bank
	chanBusy    int64 // channel data-bus occupancy
	reqs        uint64
	rowHits     uint64
	rowConfl    uint64
	totalCycles uint64 // sum of done − arrival: service plus bank and bus queueing
}

// DRAM is the set of memory controllers.
type DRAM struct {
	cfg Config
	mcs []controller
}

// New builds the memory system.
func New(cfg Config) *DRAM {
	d := &DRAM{cfg: cfg, mcs: make([]controller, cfg.MCs)}
	for i := range d.mcs {
		d.mcs[i].banks = make([]bank, cfg.BanksPerMC)
		for b := range d.mcs[i].banks {
			d.mcs[i].banks[b].openRow = -1
		}
	}
	return d
}

// Config returns the configuration the DRAM was built with.
func (d *DRAM) Config() Config { return d.cfg }

// rowOf decodes the row id and bank index of addr within one MC. The bank
// is selected by hashing the row id (the XOR/permutation bank hashes real
// controllers use): a plain modulo would alias with the page-granularity
// MC interleave — the pages owned by one MC are congruent mod NumMCs, so
// `row % banks` would exercise only banks/NumMCs of the banks.
func (d *DRAM) rowOf(addr mem.Addr) (row int64, bankIdx int) {
	r := uint64(addr) / uint64(d.cfg.RowBufBytes)
	h := r
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int64(r), int(h % uint64(d.cfg.BanksPerMC))
}

// Request services a read at `addr` on controller `mc`, arriving at time
// `arrival`, and returns the completion time. Queueing on the target bank
// and the channel data bus is modelled with busy-until bookkeeping.
func (d *DRAM) Request(mc int, addr mem.Addr, arrival int64) int64 {
	c := &d.mcs[mc]
	row, bi := d.rowOf(addr)
	b := &c.banks[bi]

	start := arrival
	if b.busyUntil > start {
		start = b.busyUntil
	}

	var service int64
	switch {
	case b.openRow == row:
		service = d.cfg.Timing.RowHit
		c.rowHits++
	case b.openRow == -1:
		service = d.cfg.Timing.RowEmpty
	default:
		service = d.cfg.Timing.RowConflict
		c.rowConfl++
	}
	b.openRow = row

	ready := start + service
	// The data burst needs the channel bus.
	if c.chanBusy > ready {
		ready = c.chanBusy
	}
	done := ready + d.cfg.Timing.Burst
	c.chanBusy = done
	b.busyUntil = done

	c.reqs++
	c.totalCycles += uint64(done - arrival)
	return done
}

// Stats aggregates counters across controllers.
type Stats struct {
	Requests     uint64
	RowHits      uint64
	RowConflicts uint64
	AvgLatency   float64
}

// Stats returns aggregate statistics since the last Reset.
func (d *DRAM) Stats() Stats {
	var s Stats
	var cycles uint64
	for i := range d.mcs {
		s.Requests += d.mcs[i].reqs
		s.RowHits += d.mcs[i].rowHits
		s.RowConflicts += d.mcs[i].rowConfl
		cycles += d.mcs[i].totalCycles
	}
	if s.Requests > 0 {
		s.AvgLatency = float64(cycles) / float64(s.Requests)
	}
	return s
}

// PerMCRequests returns the request count handled by each controller —
// the load-balance view used when reporting MC pressure.
func (d *DRAM) PerMCRequests() []uint64 {
	out := make([]uint64, len(d.mcs))
	for i := range d.mcs {
		out[i] = d.mcs[i].reqs
	}
	return out
}

// Reset clears all bank state and statistics.
func (d *DRAM) Reset() {
	for i := range d.mcs {
		for b := range d.mcs[i].banks {
			d.mcs[i].banks[b] = bank{openRow: -1}
		}
		d.mcs[i] = controller{banks: d.mcs[i].banks}
	}
}
