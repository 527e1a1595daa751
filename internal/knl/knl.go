// Package knl models the Intel Knights Landing cluster modes the paper
// evaluates in Figures 16–17, as address-hashing policies over the same
// mesh simulator:
//
//   - all-to-all: addresses are uniformly hashed over all MCs and all LLC
//     banks, with no locality between a bank and "its" MC;
//   - quadrant: the chip is divided into four virtual quadrants and an
//     address's MC is the one in the same quadrant as its home bank, so
//     bank-to-memory traffic stays within a quadrant;
//   - SNC-4: each quadrant is exposed as a NUMA cluster — pages are
//     placed (first-touch) in the quadrant of the core that first
//     accesses them, and their home banks stay in the same quadrant.
//
// The real KNL is a 36-tile, 72-core part; we model the paper's 6×6 mesh
// of tiles with one MC per quadrant corner, which preserves the
// cluster-mode distance relationships the paper's study exercises.
package knl

import (
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/sim"
	"locmap/internal/topology"
)

// Mode is a KNL cluster mode.
type Mode int

const (
	// AllToAll hashes addresses uniformly over all MCs and banks.
	AllToAll Mode = iota
	// Quadrant keeps bank→MC traffic within a virtual quadrant.
	Quadrant
	// SNC4 additionally restricts page placement to the first-touch
	// core's quadrant (NUMA clusters).
	SNC4
)

func (m Mode) String() string {
	switch m {
	case AllToAll:
		return "all-to-all"
	case Quadrant:
		return "quadrant"
	case SNC4:
		return "SNC-4"
	default:
		return "unknown"
	}
}

// Modes lists the three cluster modes in figure order.
func Modes() []Mode { return []Mode{AllToAll, Quadrant, SNC4} }

func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// quadrantOf returns the quadrant (0..3) of a node on mesh m.
func quadrantOf(m *topology.Mesh, n topology.NodeID) int {
	c := m.CoordOf(n)
	q := 0
	if c.X >= m.Width/2 {
		q |= 1
	}
	if c.Y >= m.Height/2 {
		q |= 2
	}
	return q
}

// quadrantMC maps quadrant index to the MC in that quadrant for the
// corner placement: MC0 top-left (q0), MC1 top-right (q1), MC3
// bottom-left (q2), MC2 bottom-right (q3).
func quadrantMC(q int) int {
	switch q {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 3
	default:
		return 2
	}
}

// Config builds a sim.Config for the KNL-like machine in the given
// cluster mode. For SNC-4 the page placement depends on first touch, so
// the map is finalized by FirstTouch after the schedule is known; until
// then SNC-4 behaves like quadrant mode.
func Config(mode Mode) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.AddrMap = NewMap(mode, cfg.Mesh, cfg.PageSize, cfg.L2Line)
	return cfg
}

// Map is the KNL address map.
type Map struct {
	mode     Mode
	mesh     *topology.Mesh
	pageSize int
	lineSize int

	// pageQuad pins pages to quadrants (SNC-4 first-touch placement).
	pageQuad map[mem.Addr]int
	// quadNodes lists each quadrant's nodes in ID order: the SNC-4
	// home-bank candidates of a page pinned to that quadrant.
	quadNodes [4][]topology.NodeID
}

// NewMap builds the address hash for a cluster mode.
func NewMap(mode Mode, mesh *topology.Mesh, pageSize, lineSize int) *Map {
	k := &Map{
		mode:     mode,
		mesh:     mesh,
		pageSize: pageSize,
		lineSize: lineSize,
		pageQuad: make(map[mem.Addr]int),
	}
	for n := topology.NodeID(0); n < topology.NodeID(mesh.NumNodes()); n++ {
		q := quadrantOf(mesh, n)
		k.quadNodes[q] = append(k.quadNodes[q], n)
	}
	return k
}

// Mode returns the map's cluster mode.
func (k *Map) Mode() Mode { return k.mode }

// HomeBank implements mem.Map.
func (k *Map) HomeBank(addr mem.Addr) int {
	line := uint64(addr) / uint64(k.lineSize)
	nodes := uint64(k.mesh.NumNodes())
	switch k.mode {
	case AllToAll, Quadrant:
		return int(hash64(line) % nodes)
	default: // SNC4: bank within the page's quadrant
		quadNodes := k.quadNodes[k.quadOf(addr)]
		return int(quadNodes[hash64(line)%uint64(len(quadNodes))])
	}
}

// MC implements mem.Map.
func (k *Map) MC(addr mem.Addr) int {
	page := uint64(addr) / uint64(k.pageSize)
	switch k.mode {
	case AllToAll:
		return int(hash64(page^0x5bd1e995) % uint64(k.mesh.NumMCs()))
	case Quadrant:
		// The MC in the same quadrant as the home bank.
		bank := k.HomeBank(addr)
		return quadrantMC(quadrantOf(k.mesh, topology.NodeID(bank)))
	default: // SNC4
		return quadrantMC(k.quadOf(addr))
	}
}

// NumMCs implements mem.Map.
func (k *Map) NumMCs() int { return k.mesh.NumMCs() }

// NumBanks implements mem.Map.
func (k *Map) NumBanks() int { return k.mesh.NumNodes() }

// quadOf returns the page's quadrant: pinned by first touch when known,
// hashed otherwise.
func (k *Map) quadOf(addr mem.Addr) int {
	page := addr / mem.Addr(k.pageSize)
	if q, ok := k.pageQuad[page]; ok {
		return q
	}
	return int(hash64(uint64(page)) % 4)
}

// FirstTouch finalizes SNC-4 page placement: every page of every array is
// pinned to the quadrant of the core that first touches it under the
// given schedule. No-op for other modes.
func (k *Map) FirstTouch(p *loop.Program, sched *sim.Schedule, iterSetFrac float64) {
	if k.mode != SNC4 {
		return
	}
	var iv []int64
	for i, n := range p.Nests {
		sets := n.IterationSets(iterSetFrac)
		for kset, set := range sets {
			c := sched.Assign[i].Core[kset]
			q := quadrantOf(k.mesh, c)
			for flat := set.Lo; flat < set.Hi; flat++ {
				iv = n.Unflatten(iv, flat)
				for r := range n.Refs {
					page := n.Refs[r].Addr(iv, flat) / mem.Addr(k.pageSize)
					if _, seen := k.pageQuad[page]; !seen {
						k.pageQuad[page] = q
					}
				}
			}
		}
	}
}

// DefaultCoreSchedule is a convenience: the default round-robin schedule
// on the KNL mesh (used for first-touch placement of the Original
// configurations).
func DefaultCoreSchedule(sys *sim.System, p *loop.Program) *sim.Schedule {
	return sys.DefaultScheduleFor(p)
}

var _ mem.Map = (*Map)(nil)
