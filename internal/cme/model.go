package cme

import (
	"fmt"
	"math/bits"
)

// maxResidentLines caps the residency bitmap: lines at or past it are
// looked up by a tag scan instead. A program may declare arrays far
// larger than memory (an array of 2^50 elements parses), so the bitmap
// cannot simply cover every line a program could touch; 1<<23 lines is
// a 1 MiB bitmap, 512 MiB of data at 64-byte lines.
const maxResidentLines = 1 << 23

// model is the estimator's capacity model: a set-associative LRU cache
// whose hit/miss sequence equals cache.Cache's for the same geometry and
// accesses, built for a stream that mostly misses.
//
//   - Each set is a ring of ways slots read MRU-first from its head, so
//     a miss writes the new line over the LRU slot (or the next free
//     one) and moves the head back one slot, where cache.Cache shifts
//     every resident tag down by one.
//   - A bitmap over line numbers records which lines are resident, so a
//     miss needs no tag scan; only a hit searches its set, to move the
//     line to the MRU position.
//
// Ring order from the head is exactly cache.Cache's MRU-first tag order:
// both insert at the MRU end, evict the LRU end when full, and move a
// hit to the MRU end keeping the others' order. A set that is not full
// occupies the ring's tail, ring[head:], with head = ways − occupancy.
type model struct {
	lineSize, numSets, ways uint64

	// lineShift/setMask replace the divisions in the address → line →
	// set split when lineSize and numSets are powers of two.
	lineShift uint
	setMask   uint64
	pow2      bool

	// lines holds every set's ring: set s owns lines[s*ways:(s+1)*ways].
	// Slots hold line numbers (address / lineSize), not tags, so an
	// evicted slot names the bitmap bit to clear.
	lines []uint64
	sets  []lru

	// resident has bit l set iff line l is in the model, for every line
	// l < 64·len(resident); cover sizes it.
	resident []uint64
}

// lru is one set's ring state: the slot of its MRU line and how many
// slots hold lines.
type lru struct {
	head, occ uint32
}

// newModel builds an empty model of size bytes. It panics on the
// geometries cache.New rejects.
func newModel(size, lineSize, ways int) *model {
	lines := 0
	if lineSize > 0 {
		lines = size / lineSize
	}
	if size <= 0 || lineSize <= 0 || ways <= 0 || lines == 0 || lines%ways != 0 {
		panic(fmt.Sprintf("cme: capacity model geometry (%d,%d,%d) is not a whole number of %d-way sets", size, lineSize, ways, ways))
	}
	sets := lines / ways
	m := &model{
		lineSize: uint64(lineSize),
		numSets:  uint64(sets),
		ways:     uint64(ways),
		lines:    make([]uint64, sets*ways),
		sets:     make([]lru, sets),
	}
	if isPow2(lineSize) && isPow2(sets) {
		m.pow2 = true
		m.lineShift = uint(bits.TrailingZeros64(uint64(lineSize)))
		m.setMask = uint64(sets - 1)
	}
	m.reset()
	return m
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// line returns the line number of addr.
func (m *model) line(addr uint64) uint64 {
	if m.pow2 {
		return addr >> m.lineShift
	}
	return addr / m.lineSize
}

// set returns the set line maps to.
func (m *model) set(line uint64) uint64 {
	if m.pow2 {
		return line & m.setMask
	}
	return line % m.numSets
}

// access looks addr up, updates LRU state and inserts the line on a
// miss, reporting whether it hit.
func (m *model) access(addr uint64) bool {
	line := m.line(addr)
	s := m.set(line)
	ring := m.lines[s*m.ways : (s+1)*m.ways : (s+1)*m.ways]
	r := &m.sets[s]
	if w := line >> 6; w < uint64(len(m.resident)) {
		bit := uint64(1) << (line & 63)
		if m.resident[w]&bit == 0 {
			m.resident[w] |= bit
			m.insert(ring, r, line)
			return false
		}
	}
	// Resident per the bitmap, or past it: search the set.
	for i := r.head; i < uint32(len(ring)); i++ {
		if ring[i] == line {
			copy(ring[r.head+1:i+1], ring[r.head:i])
			ring[r.head] = line
			return true
		}
	}
	if r.occ == uint32(len(ring)) {
		for i := uint32(0); i < r.head; i++ {
			if ring[i] == line {
				// The line sits in the wrapped part, after
				// ring[head:] in MRU order: shift both parts
				// down one and carry the last slot over.
				copy(ring[1:i+1], ring[:i])
				ring[0] = ring[len(ring)-1]
				copy(ring[r.head+1:], ring[r.head:len(ring)-1])
				ring[r.head] = line
				return true
			}
		}
	}
	m.insert(ring, r, line)
	return false
}

// insert makes line the MRU entry of a set that does not hold it,
// evicting the LRU entry of a full set.
func (m *model) insert(ring []uint64, r *lru, line uint64) {
	h := r.head
	if h == 0 {
		h = uint32(len(ring))
	}
	h--
	if r.occ == uint32(len(ring)) {
		old := ring[h]
		if w := old >> 6; w < uint64(len(m.resident)) {
			m.resident[w] &^= 1 << (old & 63)
		}
	} else {
		r.occ++
	}
	ring[h] = line
	r.head = h
}

// cover grows the bitmap to hold every line up to addr's, or up to
// maxResidentLines, and marks every resident line the new bitmap holds.
func (m *model) cover(addr uint64) {
	end := uint64(maxResidentLines)
	if l := m.line(addr); l < end {
		end = l + 1
	}
	words := (end + 63) / 64
	if words <= uint64(len(m.resident)) {
		return
	}
	m.resident = make([]uint64, words)
	for s := range m.sets {
		r := m.sets[s]
		ring := m.lines[uint64(s)*m.ways : uint64(s+1)*m.ways]
		for _, line := range ring[uint64(len(ring))-uint64(r.occ):] {
			if w := line >> 6; w < words {
				m.resident[w] |= 1 << (line & 63)
			}
		}
	}
}

// reset empties the model.
func (m *model) reset() {
	for s := range m.sets {
		m.sets[s] = lru{head: uint32(m.ways)}
	}
	clear(m.resident)
}
