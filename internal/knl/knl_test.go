package knl

import (
	"testing"

	"locmap/internal/core"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/sim"
	"locmap/internal/topology"
)

func TestModeNames(t *testing.T) {
	want := []string{"all-to-all", "quadrant", "SNC-4"}
	for i, m := range Modes() {
		if m.String() != want[i] {
			t.Errorf("mode %d = %q, want %q", i, m, want[i])
		}
	}
}

func TestQuadrantOf(t *testing.T) {
	m := topology.Default6x6()
	cases := []struct {
		c topology.Coord
		q int
	}{
		{topology.Coord{X: 0, Y: 0}, 0},
		{topology.Coord{X: 5, Y: 0}, 1},
		{topology.Coord{X: 0, Y: 5}, 2},
		{topology.Coord{X: 5, Y: 5}, 3},
		{topology.Coord{X: 2, Y: 2}, 0},
		{topology.Coord{X: 3, Y: 3}, 3},
	}
	for _, c := range cases {
		if got := quadrantOf(m, m.NodeAt(c.c)); got != c.q {
			t.Errorf("quadrantOf(%v) = %d, want %d", c.c, got, c.q)
		}
	}
}

func TestQuadrantMCIsInQuadrant(t *testing.T) {
	m := topology.Default6x6()
	for q := 0; q < 4; q++ {
		mc := quadrantMC(q)
		node := m.MCNode(topology.MCID(mc))
		if quadrantOf(m, node) != q {
			t.Errorf("MC %d for quadrant %d sits in quadrant %d", mc, q, quadrantOf(m, node))
		}
	}
}

func TestAllToAllSpreadsUniformly(t *testing.T) {
	m := NewMap(AllToAll, topology.Default6x6(), 2048, 64)
	mcCount := make([]int, 4)
	bankSeen := map[int]bool{}
	for p := 0; p < 4096; p++ {
		mcCount[m.MC(mem.Addr(p*2048))]++
		bankSeen[m.HomeBank(mem.Addr(p*64))] = true
	}
	for mc, c := range mcCount {
		if c < 800 || c > 1250 {
			t.Errorf("all-to-all MC %d has %d of 4096 pages", mc, c)
		}
	}
	if len(bankSeen) != 36 {
		t.Errorf("all-to-all uses %d banks, want 36", len(bankSeen))
	}
}

func TestQuadrantModeKeepsBankMCLocal(t *testing.T) {
	mesh := topology.Default6x6()
	m := NewMap(Quadrant, mesh, 2048, 64)
	for a := mem.Addr(0); a < 1<<20; a += 4096 {
		bank := m.HomeBank(a)
		mc := m.MC(a)
		if quadrantOf(mesh, topology.NodeID(bank)) != quadrantOf(mesh, mesh.MCNode(topology.MCID(mc))) {
			t.Fatalf("addr %#x: bank %d and MC %d in different quadrants", a, bank, mc)
		}
	}
}

func snc4Program() *loop.Program {
	a := &loop.Array{Name: "A", ElemSize: 8, Elems: 1 << 16}
	n := &loop.Nest{
		Name:       "s",
		Bounds:     []int64{1 << 16},
		WorkCycles: 4,
		Parallel:   true,
		Refs:       []loop.Ref{{Array: a, Kind: loop.Read, Index: loop.Affine{Coeffs: []int64{1}}}},
	}
	p := &loop.Program{Name: "p", Arrays: []*loop.Array{a}, Nests: []*loop.Nest{n}, Regular: true}
	p.Layout(0, 2048)
	return p
}

func TestSNC4FirstTouchPinsPages(t *testing.T) {
	cfg := Config(SNC4)
	kmap := cfg.AddrMap.(*Map)
	p := snc4Program()
	sys := sim.New(cfg)
	def := sys.DefaultScheduleFor(p)
	kmap.FirstTouch(p, def, cfg.IterSetFrac)

	// After first touch, every touched page's banks and MC must be in
	// the quadrant of a core that touches it first.
	n := p.Nests[0]
	sets := n.IterationSets(cfg.IterSetFrac)
	var iv []int64
	seen := map[mem.Addr]int{}
	for k, set := range sets {
		q := quadrantOf(cfg.Mesh, def.Assign[0].Core[k])
		for flat := set.Lo; flat < set.Hi; flat++ {
			iv = n.Unflatten(iv, flat)
			page := n.Refs[0].Addr(iv, flat) / 2048
			if _, ok := seen[page]; !ok {
				seen[page] = q
			}
		}
	}
	for page, q := range seen {
		addr := page * 2048
		if got := quadrantOf(cfg.Mesh, topology.NodeID(kmap.HomeBank(addr))); got != q {
			t.Fatalf("page %d bank in quadrant %d, first touch was %d", page, got, q)
		}
		if got := quadrantOf(cfg.Mesh, cfg.Mesh.MCNode(topology.MCID(kmap.MC(addr)))); got != q {
			t.Fatalf("page %d MC in quadrant %d, first touch was %d", page, got, q)
		}
	}
}

// TestSNC4HomeBankAllocFree pins SNC-4's per-access home-bank lookup
// to zero heap allocations, over first-touch pinned and hashed pages
// alike: the shared-LLC engine calls it on every L1 miss.
func TestSNC4HomeBankAllocFree(t *testing.T) {
	cfg := Config(SNC4)
	kmap := cfg.AddrMap.(*Map)
	p := snc4Program()
	kmap.FirstTouch(p, sim.New(cfg).DefaultScheduleFor(p), cfg.IterSetFrac)

	var addr mem.Addr
	banks := 0
	allocs := testing.AllocsPerRun(1000, func() {
		banks += kmap.HomeBank(addr)
		addr += 1024
	})
	if allocs != 0 {
		t.Errorf("SNC-4 HomeBank allocates %v times per call, want 0", allocs)
	}
	if banks == 0 {
		t.Error("every lookup landed on bank 0")
	}
}

func TestFirstTouchNoopForOtherModes(t *testing.T) {
	cfg := Config(AllToAll)
	kmap := cfg.AddrMap.(*Map)
	p := snc4Program()
	sys := sim.New(cfg)
	before := kmap.MC(12345)
	kmap.FirstTouch(p, sys.DefaultScheduleFor(p), cfg.IterSetFrac)
	if kmap.MC(12345) != before {
		t.Error("FirstTouch must not change non-SNC4 maps")
	}
}

func TestConfigRunsOnSimulator(t *testing.T) {
	for _, mode := range Modes() {
		cfg := Config(mode)
		p := snc4Program()
		sys := sim.New(cfg)
		sets := sys.Sets(p.Nests[0])
		res := sys.RunNest(p.Nests[0], sets, core.DefaultSchedule(cfg.Mesh, len(sets)))
		if res.Cycles <= 0 {
			t.Errorf("mode %v: no cycles simulated", mode)
		}
	}
}
