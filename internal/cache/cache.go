// Package cache implements the set-associative cache models of the
// simulated manycore: per-core L1s and an L2 last-level cache that is
// either private per node or shared across nodes as a banked S-NUCA cache.
//
// The models are behavioural (hit/miss + LRU state), not timing models —
// latency is attributed by the system simulator in internal/sim, which
// knows the distances involved.
package cache

import (
	"fmt"

	"locmap/internal/mem"
)

// Cache is a single set-associative, LRU-replacement cache (or one bank of
// a banked cache).
type Cache struct {
	lineSize int
	numSets  int
	ways     int

	// tags holds all resident line tags in one contiguous backing array:
	// set s owns tags[s*ways : s*ways+occ[s]], in LRU order with index 0
	// most recently used. One flat array instead of a slice-of-slices
	// keeps every lookup to a single cache-friendly segment scan with no
	// pointer chasing or append growth.
	tags []uint64
	// occ[s] is the number of resident lines in set s (≤ ways).
	occ []int32

	// lineShift/setMask/setShift replace the divisions in the
	// line/set/tag split when lineSize and numSets are powers of two —
	// the common case for every simulated geometry.
	lineShift, setShift uint
	setMask             uint64
	pow2                bool

	hits, misses uint64
}

// New constructs a cache of the given total size in bytes. Size must be
// divisible by lineSize*ways.
func New(size, lineSize, ways int) (*Cache, error) {
	if size <= 0 || lineSize <= 0 || ways <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry (%d,%d,%d)", size, lineSize, ways)
	}
	lines := size / lineSize
	if lines%ways != 0 || lines == 0 {
		return nil, fmt.Errorf("cache: %d bytes / %dB lines not divisible into %d ways", size, lineSize, ways)
	}
	sets := lines / ways
	c := &Cache{
		lineSize: lineSize,
		numSets:  sets,
		ways:     ways,
		tags:     make([]uint64, sets*ways),
		occ:      make([]int32, sets),
	}
	if isPow2(lineSize) && isPow2(sets) {
		c.pow2 = true
		c.lineShift = log2(uint64(lineSize))
		c.setShift = log2(uint64(sets))
		c.setMask = uint64(sets - 1)
	}
	return c, nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

func log2(v uint64) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// split computes (set, tag) for an address. The pow2 fast path turns the
// two divisions into shifts and a mask; both paths compute identical
// values.
func (c *Cache) split(addr mem.Addr) (int, uint64) {
	if c.pow2 {
		line := uint64(addr) >> c.lineShift
		return int(line & c.setMask), line >> c.setShift
	}
	line := uint64(addr) / uint64(c.lineSize)
	return int(line % uint64(c.numSets)), line / uint64(c.numSets)
}

// MustNew is New but panics on error; for static configurations.
func MustNew(size, lineSize, ways int) *Cache {
	c, err := New(size, lineSize, ways)
	if err != nil {
		panic(err)
	}
	return c
}

// LineSize returns the cache's line size in bytes.
func (c *Cache) LineSize() int { return c.lineSize }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.numSets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Access looks up addr, updates LRU state and inserts the line on a miss.
// It reports whether the access hit.
func (c *Cache) Access(addr mem.Addr) bool {
	set, tag := c.split(addr)
	return c.access(set, tag)
}

// AccessBatch performs Access over a batch of addresses issued at the
// same cycle, writing per-address outcomes into hits (which must be at
// least as long as addrs). The set/tag splits for a whole chunk are
// computed up front as a branch-free pass before any tag scan touches
// the store; outcomes and LRU state are identical to calling Access on
// each address in order.
func (c *Cache) AccessBatch(addrs []mem.Addr, hits []bool) {
	var sets [16]int
	var tags [16]uint64
	for len(addrs) > 0 {
		n := len(addrs)
		if n > len(sets) {
			n = len(sets)
		}
		if c.pow2 {
			for i, a := range addrs[:n] {
				line := uint64(a) >> c.lineShift
				sets[i] = int(line & c.setMask)
				tags[i] = line >> c.setShift
			}
		} else {
			for i, a := range addrs[:n] {
				sets[i], tags[i] = c.split(a)
			}
		}
		for i := 0; i < n; i++ {
			hits[i] = c.access(sets[i], tags[i])
		}
		addrs, hits = addrs[n:], hits[n:]
	}
}

// access is the split-independent body of Access.
func (c *Cache) access(set int, tag uint64) bool {
	base := set * c.ways
	ts := c.tags[base : base+int(c.occ[set])]
	for i, t := range ts {
		if t == tag {
			// Move to front (MRU).
			copy(ts[1:i+1], ts[:i])
			ts[0] = tag
			c.hits++
			return true
		}
	}
	c.misses++
	if int(c.occ[set]) < c.ways {
		c.occ[set]++
		ts = c.tags[base : base+int(c.occ[set])]
	}
	// Shift right (evicting the LRU tail when the set is full) and
	// insert at MRU.
	copy(ts[1:], ts)
	ts[0] = tag
	return false
}

// Lookup reports whether addr is resident without touching LRU state or
// statistics. The cache-miss estimator's oracle mode uses it.
func (c *Cache) Lookup(addr mem.Addr) bool {
	set, tag := c.split(addr)
	base := set * c.ways
	for _, t := range c.tags[base : base+int(c.occ[set])] {
		if t == tag {
			return true
		}
	}
	return false
}

// Invalidate removes addr's line if resident, reporting whether it was.
func (c *Cache) Invalidate(addr mem.Addr) bool {
	set, tag := c.split(addr)
	base := set * c.ways
	ts := c.tags[base : base+int(c.occ[set])]
	for i, t := range ts {
		if t == tag {
			copy(ts[i:], ts[i+1:])
			c.occ[set]--
			return true
		}
	}
	return false
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	for i := range c.occ {
		c.occ[i] = 0
	}
	c.hits, c.misses = 0, 0
}

// Stats returns (hits, misses) since the last Reset.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// MissRate returns misses/(hits+misses), or 0 with no accesses.
func (c *Cache) MissRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Organization selects how the LLC is managed.
type Organization int

const (
	// Private gives every node its own LLC; an L1 miss always probes the
	// local bank and an LLC miss goes from the node straight to the MC.
	Private Organization = iota
	// SharedSNUCA spreads lines across all banks by address (S-NUCA); an
	// L1 miss is routed to the line's home bank, and an LLC miss is
	// issued from that bank to the MC.
	SharedSNUCA
)

func (o Organization) String() string {
	switch o {
	case Private:
		return "private"
	case SharedSNUCA:
		return "shared"
	default:
		return fmt.Sprintf("Organization(%d)", int(o))
	}
}

// LLC is the banked last-level cache: one bank per node, managed either as
// private caches or a shared S-NUCA cache.
type LLC struct {
	Org   Organization
	banks []*Cache
	amap  mem.Map
}

// NewLLC builds an LLC with `banks` banks of `sizePerBank` bytes each.
func NewLLC(org Organization, banks, sizePerBank, lineSize, ways int, amap mem.Map) (*LLC, error) {
	l := &LLC{
		Org:   org,
		banks: make([]*Cache, banks),
		amap:  amap,
	}
	for i := range l.banks {
		c, err := New(sizePerBank, lineSize, ways)
		if err != nil {
			return nil, err
		}
		l.banks[i] = c
	}
	return l, nil
}

// NumBanks returns the number of banks.
func (l *LLC) NumBanks() int { return len(l.banks) }

// Bank returns bank i (for statistics inspection).
func (l *LLC) Bank(i int) *Cache { return l.banks[i] }

// HomeBank returns the bank an access from `node` to `addr` is served by:
// the local bank for private LLCs, the address-mapped home bank for
// S-NUCA.
func (l *LLC) HomeBank(node int, addr mem.Addr) int {
	if l.Org == Private {
		return node
	}
	return l.amap.HomeBank(addr) % len(l.banks)
}

// Access performs an LLC access from `node` and reports (bank, hit).
func (l *LLC) Access(node int, addr mem.Addr) (bank int, hit bool) {
	bank = l.HomeBank(node, addr)
	return bank, l.AccessBank(bank, addr)
}

// AccessBank performs an LLC access that has already been routed to its
// home bank, reporting the hit outcome. It touches only that bank's tag
// store, which is what lets the region engine serve each bank from the
// worker that owns it.
func (l *LLC) AccessBank(bank int, addr mem.Addr) bool {
	return l.banks[bank].Access(addr)
}

// Reset clears all banks.
func (l *LLC) Reset() {
	for _, b := range l.banks {
		b.Reset()
	}
}

// Stats sums hit/miss counters across banks.
func (l *LLC) Stats() (hits, misses uint64) {
	for _, b := range l.banks {
		h, m := b.Stats()
		hits += h
		misses += m
	}
	return hits, misses
}
