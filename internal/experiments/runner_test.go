package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"locmap/internal/cache"
	"locmap/internal/knl"
	"locmap/internal/mem"
	"locmap/internal/metrics"
	"locmap/internal/sim"
	"locmap/internal/stats"
)

// TestJobFingerprintFields: every result-affecting field must change the
// fingerprint; fields a kind does not read, and the documented
// normalizations, must not.
func TestJobFingerprintFields(t *testing.T) {
	base := Job{Kind: KindApp, App: "swim", Scale: 1, Variant: DefaultVariant(cache.Private)}
	seen := map[string]string{base.Fingerprint(): "base"}
	distinct := func(label string, j Job) {
		fp := j.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s fingerprints like %s", label, prev)
		}
		seen[fp] = label
	}

	app := base
	app.App = "mxm"
	distinct("app", app)

	scale := base
	scale.Scale = 2
	distinct("scale", scale)

	kind := base
	kind.Kind = KindBaseline
	distinct("kind", kind)

	oracle := base
	oracle.Variant.Oracle = true
	distinct("oracle", oracle)

	ideal := base
	ideal.Variant.WithIdeal = true
	distinct("with-ideal", ideal)

	shared := base
	shared.Variant.Cfg.LLCOrg = cache.SharedSNUCA
	distinct("llc-org", shared)

	llc := base
	llc.Variant.Cfg.L2PerCore = 1 << 20
	distinct("l2-size", llc)

	frac := base
	frac.Variant.Cfg.IterSetFrac = 0.01
	distinct("iter-set-frac", frac)

	inoc := base
	inoc.Variant.Cfg.NoC.Ideal = true
	distinct("ideal-noc", inoc)

	fine := base
	fine.Variant.Mapper.FineMAC = true
	distinct("fine-mac", fine)

	seed := base
	seed.Variant.Mapper.Seed = 7
	distinct("mapper-seed", seed)

	amap := base
	amap.Variant.Cfg.AddrMap = mem.NewInterleaved(2048, 64, 4, 36)
	distinct("addr-map", amap)

	amap2 := amap
	amap2.Variant.Cfg.AddrMap = mem.NewInterleaved(2048, 64, 4, 36)
	distinct("addr-map identity", amap2)

	knlJob := Job{Kind: KindKNL, App: "swim", Scale: 1}
	distinct("knl", knlJob)
	knlMode := knlJob
	knlMode.KNLMode = knl.SNC4
	distinct("knl-mode", knlMode)

	multi := Job{Kind: KindMulti, Mix: []string{"swim", "mxm"}, Scale: 1, Variant: DefaultVariant(cache.Private)}
	distinct("multi", multi)
	mixOrder := multi
	mixOrder.Mix = []string{"mxm", "swim"}
	distinct("mix order", mixOrder)
	mixLen := multi
	mixLen.Mix = []string{"swim", "mxm", "fft"}
	distinct("mix length", mixLen)
	multiShared := multi
	multiShared.Variant.Cfg.LLCOrg = cache.SharedSNUCA
	distinct("multi llc-org", multiShared)

	// Normalizations: scale 0 means scale 1, and a nil Mapper.Mesh means
	// Cfg.Mesh — exactly what RunApp substitutes — so these must alias.
	zeroScale := base
	zeroScale.Scale = 0
	if zeroScale.Fingerprint() != base.Fingerprint() {
		t.Error("scale 0 and scale 1 should fingerprint identically")
	}
	bare := Job{Kind: KindApp, App: "swim", Scale: 1, Variant: Variant{Cfg: base.Variant.Cfg}}
	if bare.Fingerprint() != base.Fingerprint() {
		t.Error("nil Mapper.Mesh should fingerprint as Cfg.Mesh")
	}
	// Baseline jobs ignore mapper knobs: differing seeds must share a key.
	b1, b2 := kind, kind
	b2.Variant.Mapper.Seed = 99
	if b1.Fingerprint() != b2.Fingerprint() {
		t.Error("baseline jobs should ignore mapper knobs")
	}
	// Only KindMulti reads Mix, so the other kinds' keys must not see
	// it; multi jobs in turn ignore mapper knobs.
	withMix := base
	withMix.Mix = []string{"fft"}
	if withMix.Fingerprint() != base.Fingerprint() {
		t.Error("non-multi jobs should ignore Mix")
	}
	m1, m2 := multi, multi
	m2.Variant.Mapper.Seed = 99
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Error("multi jobs should ignore mapper knobs")
	}
}

// TestRunnerSingleFlight: concurrent duplicates of one job must share a
// single execution and identical results.
func TestRunnerSingleFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(4)
	j := Job{Kind: KindBaseline, App: "mxm", Variant: DefaultVariant(cache.Private)}
	const n = 8
	var wg sync.WaitGroup
	results := make([]AppMetrics, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			results[i] = r.RunJob(j)
		}(i)
	}
	wg.Wait()
	if results[0].DefCycles <= 0 {
		t.Fatal("no cycles measured")
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("result %d differs: %+v vs %+v", i, results[i], results[0])
		}
	}
	c := r.Counters()
	if c.Requested != n || c.Executed != 1 || c.Memoized != n-1 {
		t.Fatalf("counters = %+v, want %d requested / 1 executed", c, n)
	}
}

// TestRunnerMemoAcrossFigures: figures sharing a runner must simulate
// each distinct job fingerprint exactly once. Figure 7 and Figure 14
// both request the default private-LLC variant.
func TestRunnerMemoAcrossFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	r := NewRunner(0)
	o := Options{Apps: []string{"mxm"}, Runner: r}

	Fig7(o) // one KindApp job: default private variant
	c := r.Counters()
	if c.Requested != 1 || c.Executed != 1 {
		t.Fatalf("after Fig7: counters = %+v", c)
	}

	// Fig14 requests (LA, HW) per org; its private LA job must be served
	// from the memo, leaving three fresh simulations.
	Fig14(o)
	c = r.Counters()
	if c.Requested != 5 || c.Executed != 4 || c.Memoized != 1 {
		t.Fatalf("after Fig14: counters = %+v, want 5 requested / 4 executed / 1 memoized", c)
	}
}

// TestTablesByteIdenticalAcrossParallelism: the same figure at -j 1 and
// -j 8 must render byte-identical tables — completion order must never
// leak into row order or values.
func TestTablesByteIdenticalAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	apps := []string{"swim", "mxm"}
	figs := []struct {
		name string
		run  func(Options) *stats.Table
	}{
		{"Fig2", Fig2},
		{"Fig7", Fig7},
		{"Fig16", Fig16},
		{"MultiProg", MultiProg},
	}
	for _, f := range figs {
		serial := f.run(Options{Apps: apps, Jobs: 1}).String()
		parallel := f.run(Options{Apps: apps, Jobs: 8}).String()
		if serial != parallel {
			t.Errorf("%s: tables differ between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
				f.name, serial, parallel)
		}
	}
}

// TestRunAllOrderIndependentOfCompletion: RunAll must return rows in the
// requested benchmark order even when jobs complete out of order.
func TestRunAllOrderIndependentOfCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	apps := []string{"mxm", "fft", "swim"}
	ms := RunAll(Options{Apps: apps, Jobs: 8}, DefaultVariant(cache.Private))
	if len(ms) != len(apps) {
		t.Fatalf("rows = %d", len(ms))
	}
	for i, name := range apps {
		if ms[i].Name != name {
			t.Errorf("row %d = %s, want %s", i, ms[i].Name, name)
		}
	}
}

// TestBaselineJobMatchesRunApp: a KindBaseline job must measure the same
// default-mapping cycles RunApp embeds in its metrics — Figure 13 relies
// on that equivalence for its comparison base.
func TestBaselineJobMatchesRunApp(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	v := Variant{Cfg: sim.DefaultConfig()}
	r := NewRunner(2)
	b := r.RunJob(Job{Kind: KindBaseline, App: "mxm", Variant: v})
	full := r.RunJob(Job{Kind: KindApp, App: "mxm", Variant: v})
	if b.DefCycles != full.DefCycles || b.DefNet != full.DefNet {
		t.Errorf("baseline (%d cycles, %d net) != RunApp default (%d cycles, %d net)",
			b.DefCycles, b.DefNet, full.DefCycles, full.DefNet)
	}
}

// TestRunnerRegisterExportsCounters: Register must surface the dedup
// accounting as scrape-time counter families that track the runner.
func TestRunnerRegisterExportsCounters(t *testing.T) {
	r := NewRunner(2)
	reg := metrics.New()
	r.Register(reg)

	read := func(name string) float64 {
		t.Helper()
		var b strings.Builder
		if err := reg.WriteText(&b); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		exp, err := metrics.Parse(strings.NewReader(b.String()))
		if err != nil {
			t.Fatalf("exposition does not parse: %v", err)
		}
		v, ok := exp.Value(name, nil)
		if !ok {
			t.Fatalf("family %s missing:\n%s", name, b.String())
		}
		return v
	}

	if v := read("locmap_runner_jobs_requested_total"); v != 0 {
		t.Errorf("fresh runner requested = %g, want 0", v)
	}

	// The callbacks sample the live counters, so mutating the runner's
	// accounting must show up on the next scrape.
	r.mu.Lock()
	r.requested, r.executed = 5, 3
	r.mu.Unlock()
	r.queueWaitNanos.Store(int64(1500 * time.Millisecond))

	if v := read("locmap_runner_jobs_requested_total"); v != 5 {
		t.Errorf("requested = %g, want 5", v)
	}
	if v := read("locmap_runner_jobs_executed_total"); v != 3 {
		t.Errorf("executed = %g, want 3", v)
	}
	if v := read("locmap_runner_jobs_memoized_total"); v != 2 {
		t.Errorf("memoized = %g, want 2", v)
	}
	if v := read("locmap_runner_queue_wait_seconds_total"); v != 1.5 {
		t.Errorf("queue wait = %g, want 1.5", v)
	}
}
