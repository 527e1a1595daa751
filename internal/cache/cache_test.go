package cache

import (
	"testing"
	"testing/quick"

	"locmap/internal/mem"
)

func TestGeometry(t *testing.T) {
	// Table 4: L1 16KB 8-way 32B lines; L2 512KB 16-way 64B lines.
	l1 := MustNew(16<<10, 32, 8)
	if l1.Sets() != 64 {
		t.Errorf("L1 sets = %d, want 64", l1.Sets())
	}
	l2 := MustNew(512<<10, 64, 16)
	if l2.Sets() != 512 {
		t.Errorf("L2 sets = %d, want 512", l2.Sets())
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(0, 32, 8); err == nil {
		t.Error("want error for zero size")
	}
	if _, err := New(100, 32, 8); err == nil {
		t.Error("want error for non-divisible size")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := MustNew(1<<10, 32, 2)
	if c.Access(0x100) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x100) {
		t.Error("second access should hit")
	}
	if !c.Access(0x11f) {
		t.Error("same-line access should hit")
	}
	if c.Access(0x120) {
		t.Error("next-line access should miss")
	}
	h, m := c.Stats()
	if h != 2 || m != 2 {
		t.Errorf("stats = (%d,%d), want (2,2)", h, m)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache, 32B lines, 2 sets (128 bytes total). Addresses
	// 0, 64, 128 all map to set 0.
	c := MustNew(128, 32, 2)
	c.Access(0)   // miss, set0 = {0}
	c.Access(64)  // miss, set0 = {64, 0}
	c.Access(0)   // hit,  set0 = {0, 64}
	c.Access(128) // miss, evicts 64
	if !c.Access(0) {
		t.Error("line 0 should still be resident (was MRU)")
	}
	if c.Access(64) {
		t.Error("line 64 should have been evicted (was LRU)")
	}
}

func TestWorkingSetFitsProperty(t *testing.T) {
	// Property: a working set no larger than one way per set never
	// misses after the first pass, regardless of the address offsets.
	f := func(seed uint16) bool {
		c := MustNew(4<<10, 64, 4)
		base := mem.Addr(seed) * 64
		// 16 distinct lines spread across sets: fits trivially.
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < 16; i++ {
				c.Access(base + mem.Addr(i)*64)
			}
		}
		h, m := c.Stats()
		return m == 16 && h == 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResetClears(t *testing.T) {
	c := MustNew(128, 32, 2)
	c.Access(0)
	c.Access(64)
	c.Reset()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Errorf("Reset should clear stats, got (%d,%d)", h, m)
	}
	// Both lines were resident; after Reset each misses once, then
	// hits.
	for _, addr := range []mem.Addr{0, 64, 0, 64} {
		c.Access(addr)
	}
	if h, m := c.Stats(); h != 2 || m != 2 {
		t.Errorf("after Reset: stats = (%d,%d), want (2,2): Reset should clear contents", h, m)
	}
}

func defaultMap(banks int) mem.Map {
	return mem.NewInterleaved(2048, 64, 4, banks)
}

func TestLLCPrivateUsesLocalBank(t *testing.T) {
	l, err := NewLLC(Private, 4, 1<<10, 64, 2, defaultMap(4))
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 4; node++ {
		if b := l.HomeBank(node, 0x12345); b != node {
			t.Errorf("private HomeBank(node=%d) = %d, want local", node, b)
		}
	}
	// The same address misses in every private bank independently.
	for node := 0; node < 4; node++ {
		if _, hit := l.Access(node, 0x40); hit {
			t.Errorf("node %d should cold-miss in its own bank", node)
		}
	}
}

func TestLLCSharedHomeBankFollowsAddressMap(t *testing.T) {
	amap := defaultMap(4)
	l, err := NewLLC(SharedSNUCA, 4, 1<<10, 64, 2, amap)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []mem.Addr{0, 64, 128, 192, 256, 1000, 4096} {
		want := amap.HomeBank(addr) % 4
		for node := 0; node < 4; node++ {
			if got := l.HomeBank(node, addr); got != want {
				t.Errorf("shared HomeBank(node=%d, %#x) = %d, want %d", node, addr, got, want)
			}
		}
	}
}

func TestLLCSharedHitAcrossNodes(t *testing.T) {
	l, err := NewLLC(SharedSNUCA, 4, 1<<10, 64, 2, defaultMap(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := l.Access(0, 0x40); hit {
		t.Fatal("first access should miss")
	}
	// A different node accessing the same line hits in the shared LLC.
	if _, hit := l.Access(3, 0x40); !hit {
		t.Error("shared LLC should hit for any node after fill")
	}
}

// TestLLCSharedAccessBankAllocFree pins the shared LLC's per-access path
// to zero heap allocations: every shared-LLC request that misses in L1
// goes through AccessBank, so any per-line side table there would grow
// with the simulated footprint.
func TestLLCSharedAccessBankAllocFree(t *testing.T) {
	l, err := NewLLC(SharedSNUCA, 4, 1<<10, 64, 2, defaultMap(4))
	if err != nil {
		t.Fatal(err)
	}
	var addr mem.Addr
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 4096; i++ {
			l.AccessBank(l.HomeBank(0, addr), addr)
			addr += 64
		}
	})
	if allocs != 0 {
		t.Errorf("AccessBank over 4096 fresh lines allocates %v times, want 0", allocs)
	}
}
