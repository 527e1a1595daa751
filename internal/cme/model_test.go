package cme

import (
	"testing"

	"locmap/internal/cache"
	"locmap/internal/mem"
)

// FuzzCapacityModel feeds one geometry and one address sequence to the
// estimator's capacity model and to cache.Cache, its reference, and
// requires the same hit/miss sequence. The geometry covers line sizes
// and set counts that are not powers of two; cover sizes the residency
// bitmap before the walk (0 leaves every line on the scan path). Each
// three-byte op is one of: reuse of a small line range, a stream of
// fresh lines, an address past the residency cap or at the top of the
// address space, an address straddling the cap, a bitmap growth
// mid-stream, or a Reset of both models.
func FuzzCapacityModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, lineSize, sets, ways uint8, cover uint32, ops []byte) {
		line := uint64(lineSize)%128 + 1
		numSets := uint64(sets)%64 + 1
		assoc := uint64(ways)%16 + 1
		size := int(line * numSets * assoc)
		ref := cache.MustNew(size, int(line), int(assoc))
		m := newModel(size, int(line), int(assoc))
		if cover != 0 {
			m.cover(uint64(cover) * line)
		}

		var next uint64 = 1 << 20
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := uint64(ops[i+1]), uint64(ops[i+2])
			var addr uint64
			switch ops[i] % 8 {
			case 0, 1, 2: // reuse
				addr = (a|(b&3)<<8)*line + (b>>2)%line
			case 3: // stream
				addr = next
				next += line * (1 + a%4)
			case 4: // past the cap, or the top of the address space
				if b&1 == 0 {
					addr = (maxResidentLines+a)*line + b%line
				} else {
					addr = ^uint64(0) - a*line
				}
			case 5: // straddle the cap
				addr = (maxResidentLines-2+a%4)*line + b%line
			case 6: // grow the bitmap mid-stream
				m.cover((a<<8 | b) * line * 64)
				continue
			case 7:
				ref.Reset()
				m.reset()
				continue
			}
			if got, want := m.access(addr), ref.Access(mem.Addr(addr)); got != want {
				t.Fatalf("op %d: access %#x (line %d) hit=%v, cache.Cache says %v", i/3, addr, addr/line, got, want)
			}
		}
	})
}
