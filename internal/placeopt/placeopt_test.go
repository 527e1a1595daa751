package placeopt

import (
	"reflect"
	"testing"

	"locmap/internal/compiler"
	"locmap/internal/sim"
	"locmap/internal/topology"
)

// mixSrc is a small workload mix: two streaming nests with different
// access patterns plus an irregular gather, so the search has real
// traffic asymmetry to exploit.
const mixSrc = `
param N = 8192
param M = 32768
array A[N]
array B[N]
array C[N]
array X[M]
array IDX[N]
parallel for i = 0..N work 16 {
  A[i] = B[i] + C[i]
}
parallel for i = 0..N work 8 {
  C[i] = X[IDX[i]]
}
`

func compileMix(tb testing.TB, cfg sim.Config) *compiler.Result {
	tb.Helper()
	res, err := compiler.CompileBound(mixSrc, compiler.Options{Cfg: cfg})
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return res
}

// checkValid asserts a scored placement is a legal chip for the mesh.
func checkValid(t *testing.T, m *topology.Mesh, sc Scored) {
	t.Helper()
	if len(sc.Placement.MCs) != m.NumMCs() {
		t.Fatalf("placement has %d MCs, want %d", len(sc.Placement.MCs), m.NumMCs())
	}
	if err := topology.ValidateMCs(m.Width, m.Height, sc.Placement.MCCoords()); err != nil {
		t.Fatalf("invalid placement %v: %v", sc.Placement.MCs, err)
	}
	if sc.PredictedCycles <= 0 {
		t.Fatalf("degenerate cost %d for %v", sc.PredictedCycles, sc.Placement.MCs)
	}
}

func TestSearchDeterministic(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compileMix(t, cfg)
	c := Config{Target: cfg, Candidates: 120, TopK: 4, Seed: 7}
	r1, err := Search(c, res)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Search(c, res)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same seed, different results:\n%+v\nvs\n%+v", r1, r2)
	}
}

func TestSearchBestNeverWorseThanDefault(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compileMix(t, cfg)
	r, err := Search(Config{Target: cfg, Candidates: 200, TopK: 3, Seed: 1}, res)
	if err != nil {
		t.Fatal(err)
	}
	if r.Evaluated != 200 {
		t.Fatalf("evaluated %d candidates, want 200", r.Evaluated)
	}
	if r.Best.PredictedCycles > r.Default.PredictedCycles {
		t.Fatalf("best %d cycles worse than default %d", r.Best.PredictedCycles, r.Default.PredictedCycles)
	}
	checkValid(t, cfg.Mesh, r.Default)
	checkValid(t, cfg.Mesh, r.Best)
	if len(r.Top) == 0 || len(r.Top) > 3 {
		t.Fatalf("top list has %d entries, want 1..3", len(r.Top))
	}
	if !reflect.DeepEqual(r.Top[0], r.Best) {
		t.Errorf("Top[0] %+v != Best %+v", r.Top[0], r.Best)
	}
	seen := map[string]bool{}
	for i, sc := range r.Top {
		checkValid(t, cfg.Mesh, sc)
		if i > 0 && sc.PredictedCycles < r.Top[i-1].PredictedCycles {
			t.Errorf("top list not ascending at %d", i)
		}
		key := placementKey(sc.Placement.MCCoords())
		if seen[key] {
			t.Errorf("duplicate placement in top list: %v", sc.Placement.MCs)
		}
		seen[key] = true
	}
	if r.Best.ImprovementPct < 0 {
		t.Errorf("best improvement %g%% negative", r.Best.ImprovementPct)
	}
}

func TestSearchEdgeSitesStayOnEdge(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compileMix(t, cfg)
	r, err := Search(Config{Target: cfg, Candidates: 100, Seed: 3, Sites: SitesEdge}, res)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range r.Top {
		for _, c := range sc.Placement.MCs {
			if c[0] != 0 && c[0] != cfg.Mesh.Width-1 && c[1] != 0 && c[1] != cfg.Mesh.Height-1 {
				t.Errorf("edge-site search placed an MC at interior node %v", c)
			}
		}
	}
}

func TestSearchAnySites(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compileMix(t, cfg)
	r, err := Search(Config{Target: cfg, Candidates: 100, Seed: 3, Sites: SitesAny}, res)
	if err != nil {
		t.Fatal(err)
	}
	if r.Best.PredictedCycles > r.Default.PredictedCycles {
		t.Fatal("any-site search worse than default")
	}
}

func TestSearchUnknownSitePool(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compileMix(t, cfg)
	if _, err := Search(Config{Target: cfg, Sites: "bogus"}, res); err == nil {
		t.Fatal("Search accepted an unknown site pool")
	}
	if _, err := Search(Config{}, res); err == nil {
		t.Fatal("Search accepted a nil mesh")
	}
}

func TestSearchProgressReachesTotal(t *testing.T) {
	cfg := sim.DefaultConfig()
	res := compileMix(t, cfg)
	var last Progress
	calls := 0
	_, err := Search(Config{
		Target:     cfg,
		Candidates: 96,
		Seed:       5,
		Progress:   func(p Progress) { last = p; calls++ },
	}, res)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("progress callback never invoked")
	}
	if last.Evaluated != 96 || last.Total != 96 {
		t.Fatalf("final progress %+v, want evaluated=total=96", last)
	}
	if last.BestCost <= 0 {
		t.Fatalf("final best cost %d", last.BestCost)
	}
}

// BenchmarkPlaceoptSearch reports estimate-tier search throughput in
// candidates per second — the figure of merit for interactive
// /v1/optimize requests (`make bench` label "placeopt").
func BenchmarkPlaceoptSearch(b *testing.B) {
	cfg := sim.DefaultConfig()
	res := compileMix(b, cfg)
	const candidates = 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Search(Config{Target: cfg, Candidates: candidates, Seed: 42}, res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(candidates*b.N)/b.Elapsed().Seconds(), "cand/s")
}
