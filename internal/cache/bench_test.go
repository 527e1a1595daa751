package cache

import (
	"testing"

	"locmap/internal/mem"
)

// BenchmarkCacheAccess measures the L2-geometry Access path on a strided
// address stream that mixes hits, misses and LRU churn — the per-
// reference inner operation of every simulated memory access.
func BenchmarkCacheAccess(b *testing.B) {
	c := MustNew(512<<10, 64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Two interleaved streams: a small working set that hits and a
		// large streaming one that misses and evicts.
		c.Access(mem.Addr((i % 4096) * 64))
		c.Access(mem.Addr(1<<24 + i*64))
	}
}
