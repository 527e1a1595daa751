package cme

import (
	"testing"

	"locmap/internal/cache"
	"locmap/internal/lang"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/topology"
)

// benchSources are two request-family shapes that spill the capacity
// model, so most walked references miss: a stride-8 stream (one
// reference per 64-byte line) and the 2-D stencil followed by two
// streams over its output.
var benchSources = []string{
	"param N = 96000\narray A[N]\narray B[N]\narray C[N]\narray D[N]\n" +
		"parallel for i = 0..12000 work 4 {\n  A[8*i] = B[8*i] + C[8*i] + D[8*i]\n}\n",
	"param N = 25600\narray G[N + 16]\narray H[N + 16]\narray A[N]\narray B[N]\n" +
		"parallel for i = 0..200 work 4 {\n  for j = 0..128 {\n    H[128*i + j + 1] = G[128*i + j] + G[128*i + j + 1] + G[128*i + j + 2]\n  }\n}\n" +
		"parallel for i = 0..N work 16 {\n  A[i] = H[i] + B[i]\n}\n" +
		"parallel for i = 0..N work 16 {\n  B[i] = A[i] + H[i + 1]\n}\n",
}

// benchEstimate times a cold estimator over both sources on the 8x8/4x4
// mesh with the Table 4 capacity model and a default-band accuracy, as
// one uncached compile runs it.
func benchEstimate(b *testing.B, org cache.Organization) {
	mesh := topology.MustNew(8, 8, 4, 4, topology.MCCorners)
	cfg := Config{
		Mesh:        mesh,
		Org:         org,
		AMap:        mem.NewInterleaved(2048, 64, mesh.NumMCs(), mesh.NumNodes()),
		L1Line:      32,
		ModelBytes:  512 << 10,
		ModelLine:   64,
		ModelWays:   16,
		IterSetFrac: 0.0025,
		Accuracy:    AccuracyFor("program"),
		Seed:        1,
	}
	var progs []*loop.Program
	for _, src := range benchSources {
		p, err := lang.Parse(src, nil)
		if err != nil {
			b.Fatal(err)
		}
		p.Layout(0, 2048)
		progs = append(progs, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			New(cfg).EstimateProgram(p)
		}
	}
}

// BenchmarkEstimateNestPrivate measures the estimator's walk for a
// private LLC: MAI from the predicted misses and α.
func BenchmarkEstimateNestPrivate(b *testing.B) { benchEstimate(b, cache.Private) }

// BenchmarkEstimateNestShared adds the shared-LLC CAI, the home bank's
// region of every predicted hit.
func BenchmarkEstimateNestShared(b *testing.B) { benchEstimate(b, cache.SharedSNUCA) }
