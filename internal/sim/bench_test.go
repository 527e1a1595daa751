package sim

import (
	"testing"

	"locmap/internal/cache"
	"locmap/internal/core"
	"locmap/internal/loop"
	"locmap/internal/noc"
	"locmap/internal/topology"
	"locmap/internal/workloads"
)

// Micro-benchmarks for the per-reference hot path. The figure-level
// benchmarks in the repository root measure whole experiments; these
// isolate RunNest itself (and, in the noc/cache packages, its inner
// components) so optimizations are attributable. Run via `make bench`.

func benchNest(b *testing.B, org cache.Organization) {
	cfg := DefaultConfig()
	cfg.LLCOrg = org
	s := New(cfg)
	p := workloads.MustNew("swim", 1)
	n := p.Nests[0]
	sets := s.Sets(n)
	assign := core.DefaultSchedule(cfg.Mesh, len(sets))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunNest(n, sets, assign)
	}
	iters := n.Iterations() * int64(len(n.Refs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters*int64(b.N)), "ns/ref")
}

// BenchmarkRunNestPrivate executes one stencil nest on the Table 4
// machine with private LLCs — the configuration most experiment jobs
// spend their time in.
func BenchmarkRunNestPrivate(b *testing.B) { benchNest(b, cache.Private) }

// BenchmarkRunNestShared executes the same nest under the S-NUCA shared
// LLC, which adds the home-bank NoC legs to most references.
func BenchmarkRunNestShared(b *testing.B) { benchNest(b, cache.SharedSNUCA) }

// BenchmarkRunNestIrregular executes an index-array nest (moldyn), the
// inspector–executor workloads' shape.
func BenchmarkRunNestIrregular(b *testing.B) {
	cfg := DefaultConfig()
	s := New(cfg)
	p := workloads.MustNew("moldyn", 1)
	var n *loop.Nest
	for _, cand := range p.Nests {
		for i := range cand.Refs {
			if cand.Refs[i].Irregular {
				n = cand
				break
			}
		}
		if n != nil {
			break
		}
	}
	if n == nil {
		b.Fatal("no irregular nest in moldyn")
	}
	sets := s.Sets(n)
	assign := core.DefaultSchedule(cfg.Mesh, len(sets))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunNest(n, sets, assign)
	}
}

// BenchmarkNoCSend measures one routed packet send, the innermost NoC
// operation of every L1 miss under a shared LLC.
func BenchmarkNoCSend(b *testing.B) {
	mesh := topology.Default6x6()
	net := noc.New(mesh, noc.DefaultConfig())
	nodes := topology.NodeID(mesh.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	t := int64(0)
	for i := 0; i < b.N; i++ {
		src := topology.NodeID(i) % nodes
		dst := (src + 7) % nodes
		t = net.Send(src, dst, t, noc.Request)
	}
}
