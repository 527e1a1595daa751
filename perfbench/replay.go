package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/cme"
	"locmap/internal/compiler"
	"locmap/internal/core"
	"locmap/internal/estimate"
	"locmap/internal/experiments"
	"locmap/internal/inspector"
	"locmap/internal/jobqueue"
	"locmap/internal/lang"
	"locmap/internal/loop"
	"locmap/internal/placeopt"
	"locmap/internal/plancache"
	"locmap/internal/server"
	"locmap/internal/sim"
	"locmap/internal/workloads"
)

// newInProcessServer is a locmapd server without listeners or journal,
// for replaying requests through server.Handler().
func newInProcessServer() (*server.Server, error) {
	return server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}

// serveInProcess runs one request through h and returns the decoded
// envelope and the handler time.
func serveInProcess(h http.Handler, path string, body []byte) (server.MapResponse, time.Duration, error) {
	r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, r)
	d := time.Since(t0)
	var resp server.MapResponse
	if w.Code != http.StatusOK {
		return resp, d, fmt.Errorf("in-process %s: status %d: %.200s", path, w.Code, w.Body.Bytes())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		return resp, d, fmt.Errorf("in-process %s: %v", path, err)
	}
	return resp, d, nil
}

// waitIdle blocks until q holds no queued or running job. An
// in-process /v1/estimate miss enqueues a background verification
// simulation; waiting for it keeps it from running beside the next
// traced call, so every span is timed with no background work.
func waitIdle(q *jobqueue.Queue) {
	for {
		queued, _ := q.List(jobqueue.ListOptions{State: jobqueue.StateQueued, Limit: 1})
		running, _ := q.List(jobqueue.ListOptions{State: jobqueue.StateRunning, Limit: 1})
		if len(queued) == 0 && len(running) == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// estimateAffinities repeats the compiler's cache-miss-estimation pass
// and the mapper on a fresh copy of the program, outside the compile
// span, so compile time can be split into cme, core and the rest.
func estimateAffinities(t *tracer, src string, cfg sim.Config, opts compiler.Options) (moved, sets int, err error) {
	p, err := lang.Parse(src, nil)
	if err != nil {
		return 0, 0, err
	}
	p.Layout(0, cfg.PageSize)
	t.request("standalone cme/core")
	defer t.end()
	t.begin("cme.estimate")
	est := cme.New(cme.Config{
		Mesh:        cfg.Mesh,
		Org:         cfg.LLCOrg,
		AMap:        sim.AddrMapFor(cfg),
		L1Line:      cfg.L1Line,
		ModelBytes:  cfg.L2PerCore,
		ModelLine:   cfg.L2Line,
		ModelWays:   cfg.L2Ways,
		IterSetFrac: cfg.IterSetFrac,
		Accuracy:    cme.AccuracyFor(p.Name),
		Seed:        1,
	})
	var affs [][]affinity.SetAffinity
	for _, n := range p.Nests {
		a := est.EstimateNest(n)
		if !irregular(n) {
			affs = append(affs, a)
		}
	}
	t.end()
	t.begin("core.map")
	mapper := core.NewMapper(opts.Mapper)
	for _, a := range affs {
		var asg *core.Assignment
		if cfg.LLCOrg == cache.SharedSNUCA {
			asg = mapper.MapShared(a)
		} else {
			asg = mapper.MapPrivate(a)
		}
		moved += asg.Moved
		sets += len(a)
	}
	t.end()
	return moved, sets, nil
}

func irregular(n *loop.Nest) bool {
	for i := range n.Refs {
		if n.Refs[i].Irregular {
			return true
		}
	}
	return false
}

// planPass is one replay of serve-plan's sequence.
type planPass struct {
	n            int
	wall         time.Duration // time inside the traced calls, spans or not
	hitHandler   []time.Duration
	missOverhead []time.Duration
	moved, sets  int
	recent       []int // family indices of the last requests, for the loopback probe
}

// replayPlanPass replays seq (stopping after budget when positive) and
// checks each answer against the live run's when pc is non-nil.
func replayPlanPass(t *tracer, fam []Spec, seq []int, budget time.Duration, pc *planChecker, o *outcome) (*planPass, error) {
	srv, err := newInProcessServer()
	if err != nil {
		return nil, err
	}
	defer srv.Close(context.Background())
	h := srv.Handler()
	pcache := plancache.New(1024)
	pass := &planPass{}
	start := time.Now()
	for _, k := range seq {
		if budget > 0 && time.Since(start) > budget {
			break
		}
		pass.n++
		s := fam[k]
		cfg, opts, err := specTarget(s)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.MapRequest{CommonRequest: s.Request()})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		t.request("POST /v1/map")
		t.begin("plancache.fingerprint")
		key, err := specKey(s, cfg, "map").Fingerprint()
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin("plancache.get")
		_, hit := pcache.GetEntry(key)
		t.end()
		if !hit {
			t.begin("lang.parse")
			p, err := lang.Parse(s.Source, nil)
			t.end()
			if err != nil {
				return nil, err
			}
			t.begin("compiler.compile")
			res, err := compiler.CompileProgram(p, opts)
			t.end()
			if err != nil {
				return nil, err
			}
			t.begin("compiler.listing")
			res.Listing()
			t.end()
			sched, err := json.Marshal(scheduleOf(res))
			if err != nil {
				return nil, err
			}
			t.begin("plancache.put")
			pcache.PutTier(key, sched, server.TierStatic)
			t.end()
			if live, ok := pc.lookup(k); ok {
				if live.fingerprint != key {
					o.fail("replay %s: fingerprint %.12s, live answer had %.12s", s.Name, key, live.fingerprint)
				}
				if sha256.Sum256(sched) != live.schedHash {
					o.fail("replay %s: schedule differs from the live answer", s.Name)
				}
			}
		}
		pipeline := t.end()
		pass.wall += time.Since(t0)

		resp, hd, err := serveInProcess(h, "/v1/map", body)
		if err != nil {
			return nil, err
		}
		if live, ok := pc.lookup(k); ok && sha256.Sum256(resp.Plan) != live.planHash {
			o.fail("replay %s: in-process plan differs from the live answer", s.Name)
		}
		if resp.Cached {
			pass.hitHandler = append(pass.hitHandler, hd)
		} else {
			pass.missOverhead = append(pass.missOverhead, hd-pipeline)
		}
		if !hit {
			t0 := time.Now()
			moved, sets, err := estimateAffinities(t, s.Source, cfg, opts)
			pass.wall += time.Since(t0)
			if err != nil {
				return nil, err
			}
			pass.moved += moved
			pass.sets += sets
		}
		pass.recent = append(pass.recent, k)
	}
	return pass, nil
}

// loopbackOverhead compares in-process and loopback handler latency on
// cached requests: the difference is what HTTP over loopback adds.
func loopbackOverhead(fam []Spec, keys []int) (float64, int, error) {
	srv, err := newInProcessServer()
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close(context.Background())
	h := srv.Handler()
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()
	var inproc, loop []time.Duration
	for _, k := range keys {
		body, err := json.Marshal(server.MapRequest{CommonRequest: fam[k].Request()})
		if err != nil {
			return 0, 0, err
		}
		if _, _, err := serveInProcess(h, "/v1/map", body); err != nil { // warm the entry
			return 0, 0, err
		}
		_, d, err := serveInProcess(h, "/v1/map", body)
		if err != nil {
			return 0, 0, err
		}
		inproc = append(inproc, d)
		t0 := time.Now()
		resp, err := client.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		loop = append(loop, time.Since(t0))
	}
	return medianUs(loop) - medianUs(inproc), len(keys), nil
}

// replayPlan is serve-plan's traced run.
func replayPlan(env *runEnv, fam []Spec, seq []int, pc *planChecker, o *outcome) error {
	t := newTracer(true)
	on, err := replayPlanPass(t, fam, seq, env.seconds/3, pc, o)
	if err != nil {
		return err
	}
	off, err := replayPlanPass(newTracer(false), fam, seq[:on.n], 0, nil, o)
	if err != nil {
		return err
	}
	reportOverhead(o, on.n, on.wall, off.wall)

	setMedian(o, "plancache.fingerprint_us", t.durations("plancache.fingerprint"), "us")
	setMedian(o, "plancache.get_us", t.durations("plancache.get"), "us")
	setMedian(o, "plancache.put_us", t.durations("plancache.put"), "us")
	setMedian(o, "lang.parse_ms", t.durations("lang.parse"), "ms")
	compile := t.durations("compiler.compile")
	setMedian(o, "compiler.compile_ms", compile, "ms")
	setMedian(o, "compiler.listing_ms", t.durations("compiler.listing"), "ms")
	cmeD, coreD := t.durations("cme.estimate"), t.durations("core.map")
	setMedian(o, "cme.estimate_ms", cmeD, "ms")
	setMedian(o, "core.map_ms", coreD, "ms")
	self := make([]time.Duration, len(compile))
	for i := range compile {
		self[i] = compile[i] - cmeD[i] - coreD[i]
	}
	setMedian(o, "compiler.self_ms", self, "ms")
	o.set("core.moved_frac", frac(uint64(on.moved), uint64(on.sets)), "fraction")
	o.note("core: %d of %d iteration sets moved by balancing", on.moved, on.sets)
	setMedian(o, "server.hit_us", on.hitHandler, "us")
	setMedian(o, "server.overhead_ms", on.missOverhead, "ms")
	o.note("server.* from %d in-process hits and %d misses; compiler.self_ms subtracts standalone cme/core calls on the same program, since spans cannot see inside CompileProgram",
		len(on.hitHandler), len(on.missOverhead))

	probe := on.recent
	if len(probe) > 200 {
		probe = probe[len(probe)-200:]
	}
	overhead, n, err := loopbackOverhead(fam, probe)
	if err != nil {
		return err
	}
	o.set("http.overhead_us", overhead, "us")
	o.note("http.overhead_us: median loopback minus median in-process latency over %d cached requests", n)
	path, err := t.write(env)
	if err != nil {
		return err
	}
	o.note("%d spans written to %s", len(t.spans), path)
	return nil
}

// simPass is one replay of serve-sim's sequence.
type simPass struct {
	n            int // requests replayed
	visits       int
	wall         time.Duration // time inside the traced calls, spans or not
	hitHandler   []time.Duration
	missOverhead []time.Duration
	totals       simTotals
	moved, sets  int
	evaluated    int
	searchTime   time.Duration
}

// replaySimPass replays serve-sim's visits and the first nOpt optimize
// jobs, checking answers against the live run's when live is non-nil.
func replaySimPass(t *tracer, fam []Spec, visits []int, optFam []Spec, nOpt int, budget time.Duration, live *simLive, o *outcome) (*simPass, error) {
	srv, err := newInProcessServer()
	if err != nil {
		return nil, err
	}
	defer srv.Close(context.Background())
	h := srv.Handler()
	pcache := plancache.New(1024)
	pass := &simPass{}
	start := time.Now()

	// compile is the shared front half of every endpoint's pipeline.
	compile := func(s Spec, opts compiler.Options) (*compiler.Result, error) {
		t.begin("lang.parse")
		p, err := lang.Parse(s.Source, nil)
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin("compiler.compile")
		res, err := compiler.CompileProgram(p, opts)
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin("lang.index_data")
		lang.GenerateIndexData(res.Program, 1, 64)
		err = res.Program.Validate()
		t.end()
		return res, err
	}
	record := func(resp server.MapResponse, hd, pipeline time.Duration) {
		if resp.Cached {
			pass.hitHandler = append(pass.hitHandler, hd)
		} else {
			pass.missOverhead = append(pass.missOverhead, hd-pipeline)
		}
	}

	for _, k := range visits {
		if budget > 0 && time.Since(start) > budget {
			break
		}
		pass.visits++
		pass.n += 2
		s := fam[k]
		cfg, opts, err := specTarget(s)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(server.MapRequest{CommonRequest: s.Request()})
		if err != nil {
			return nil, err
		}

		t0 := time.Now()
		t.request("POST /v1/estimate")
		t.begin("plancache.fingerprint")
		key, err := specKey(s, cfg, "estimate").Fingerprint()
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin("plancache.get")
		_, hit := pcache.GetEntry(key)
		t.end()
		if !hit {
			res, err := compile(s, opts)
			if err != nil {
				return nil, err
			}
			t.begin("estimate.from_result")
			plan := estimate.New(estimate.Config{Cfg: cfg, Mapper: opts.Mapper}).FromResult(res)
			t.end()
			payload, err := json.Marshal(plan)
			if err != nil {
				return nil, err
			}
			t.begin("plancache.put")
			pcache.PutTier(key, payload, estimate.TierEstimate)
			t.end()
			if a, ok := live.estimateAlpha(k); ok && a != plan.Alpha {
				o.fail("replay %s: estimate alpha %g, live answer %g", s.Name, plan.Alpha, a)
			}
		}
		pipeline := t.end()
		pass.wall += time.Since(t0)
		resp, hd, err := serveInProcess(h, "/v1/estimate", body)
		if err != nil {
			return nil, err
		}
		waitIdle(srv.Queue())
		record(resp, hd, pipeline)

		t0 = time.Now()
		t.request("POST /v1/simulate")
		t.begin("plancache.fingerprint")
		key, err = specKey(s, cfg, "simulate").Fingerprint()
		t.end()
		if err != nil {
			return nil, err
		}
		t.begin("plancache.get")
		_, hit = pcache.GetEntry(key)
		t.end()
		if !hit {
			res, err := compile(s, opts)
			if err != nil {
				return nil, err
			}
			p := res.Program
			run := cfg
			run.Workers = runtime.GOMAXPROCS(0) // the server's default SimWorkers
			t.begin("sim.baseline")
			sysD := sim.New(run)
			def := sim.TotalCycles(inspector.RunBaseline(sysD, p))
			pass.totals.addRefs(sysD.Stats(), t.end())
			var la int64
			sys := sim.New(run)
			if res.NeedsInspector {
				t.begin("inspector.run")
				la = inspector.Run(sys, p, core.NewMapper(opts.Mapper), inspector.DefaultOverhead()).TotalCycles()
			} else {
				t.begin("sim.run")
				la = sim.TotalCycles(sys.RunTiming(p, func(int) *sim.Schedule { return res.Schedule }))
			}
			pass.totals.addRefs(sys.Stats(), t.end())
			pass.totals.addMachine(sys.Stats())
			t.begin("plancache.put")
			pcache.PutTier(key, []byte(fmt.Sprint(def, la)), server.TierSim)
			t.end()
			if d, l, ok := live.cycles(k); ok && (d != def || l != la) {
				o.fail("replay %s: cycles default %d locmap %d, live answer %d %d", s.Name, def, la, d, l)
			}
		}
		pipeline = t.end()
		if !hit {
			moved, sets, err := estimateAffinities(t, s.Source, cfg, opts)
			if err != nil {
				return nil, err
			}
			pass.moved += moved
			pass.sets += sets
		}
		pass.wall += time.Since(t0)
		resp, hd, err = serveInProcess(h, "/v1/simulate", body)
		if err != nil {
			return nil, err
		}
		waitIdle(srv.Queue())
		record(resp, hd, pipeline)
	}

	for _, s := range optFam[:nOpt] {
		pass.n++
		cfg, opts, err := specTarget(s)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		t.request("POST /v1/optimize")
		res, err := compile(s, opts)
		if err != nil {
			return nil, err
		}
		t.begin("placeopt.search")
		t1 := time.Now()
		search, err := placeopt.Search(placeopt.Config{
			Target:     cfg,
			Mapper:     opts.Mapper,
			Candidates: optCandidates,
			TopK:       placeopt.DefaultTopK,
			Sites:      placeopt.SitesEdge,
		}, res)
		pass.searchTime += time.Since(t1)
		t.end()
		t.end()
		pass.wall += time.Since(t0)
		if err != nil {
			return nil, err
		}
		pass.evaluated += search.Evaluated
		if b, ok := live.optimizeBest(s.Name); ok && b != search.Best.PredictedCycles {
			o.fail("replay %s: search best predicts %d cycles, live job %d", s.Name, search.Best.PredictedCycles, b)
		}
	}
	return pass, nil
}

// replaySim is serve-sim's traced run.
func replaySim(env *runEnv, fam []Spec, visits []int, optFam []Spec, live *simLive, o *outcome) error {
	nOpt := min(3, len(live.optBest))
	t := newTracer(true)
	on, err := replaySimPass(t, fam, visits, optFam, nOpt, env.seconds/3, live, o)
	if err != nil {
		return err
	}
	visitsOn := on.visits
	off, err := replaySimPass(newTracer(false), fam, visits[:visitsOn], optFam, nOpt, 0, nil, o)
	if err != nil {
		return err
	}
	reportOverhead(o, on.n, on.wall, off.wall)

	setMedian(o, "plancache.fingerprint_us", t.durations("plancache.fingerprint"), "us")
	setMedian(o, "plancache.get_us", t.durations("plancache.get"), "us")
	setMedian(o, "plancache.put_us", t.durations("plancache.put"), "us")
	setMedian(o, "lang.parse_ms", t.durations("lang.parse"), "ms")
	setMedian(o, "compiler.compile_ms", t.durations("compiler.compile"), "ms")
	setMedian(o, "cme.estimate_ms", t.durations("cme.estimate"), "ms")
	setMedian(o, "core.map_ms", t.durations("core.map"), "ms")
	o.set("core.moved_frac", frac(uint64(on.moved), uint64(on.sets)), "fraction")
	o.note("core: %d of %d iteration sets moved by balancing", on.moved, on.sets)
	setMedian(o, "estimate.from_result_ms", t.durations("estimate.from_result"), "ms")
	setMedian(o, "placeopt.search_ms", t.durations("placeopt.search"), "ms")
	evaluated := 0.0
	if nOpt > 0 {
		evaluated = float64(on.evaluated) / float64(nOpt)
	}
	o.set("placeopt.evaluated", evaluated, "count")
	candPerS := 0.0
	if on.searchTime > 0 {
		candPerS = float64(on.evaluated) / on.searchTime.Seconds()
	}
	o.set("estimate.cand_per_s", candPerS, "1/s")
	o.note("placeopt: %d candidates in %.3f s of search", on.evaluated, on.searchTime.Seconds())
	setMedian(o, "sim.run_ms", t.durations("sim.run"), "ms")
	setMedian(o, "sim.baseline_ms", t.durations("sim.baseline"), "ms")
	setMedian(o, "inspector.run_ms", t.durations("inspector.run"), "ms")
	on.totals.report(o)
	setMedian(o, "server.hit_us", on.hitHandler, "us")
	setMedian(o, "server.overhead_ms", on.missOverhead, "ms")
	o.note("replayed %d visits and %d optimize searches; server.* from %d in-process hits and %d misses",
		visitsOn, nOpt, len(on.hitHandler), len(on.missOverhead))
	path, err := t.write(env)
	if err != nil {
		return err
	}
	o.note("%d spans written to %s", len(t.spans), path)
	return nil
}

// sweepApps are the applications the golden subsets simulate.
var sweepApps = []string{"swim", "mxm", "fft", "hpccg"}

// traceSweepPass simulates each sweep app under the Table 4 defaults
// (private LLC) through sim's public API, as the experiments' default
// jobs do, and returns the cycles per app.
func traceSweepPass(t *tracer, totals *simTotals) (map[string][2]int64, time.Duration, error) {
	out := map[string][2]int64{}
	start := time.Now()
	v := experiments.DefaultVariant(cache.Private)
	for _, name := range sweepApps {
		p, err := workloads.New(name, 1)
		if err != nil {
			return nil, 0, err
		}
		t.request("app " + name)
		t.begin("sim.baseline")
		sysD := sim.New(v.Cfg)
		def := sim.TotalCycles(inspector.RunBaseline(sysD, p))
		d := t.end()
		totals.addRefs(sysD.Stats(), d)
		mapper := core.NewMapper(v.Mapper)
		sys := sim.New(v.Cfg)
		var la int64
		if p.Regular {
			t.begin("cme.estimate")
			cfg := sys.Config()
			est := cme.New(cme.Config{
				Mesh:        cfg.Mesh,
				Org:         cfg.LLCOrg,
				AMap:        sys.AddrMap(),
				L1Line:      cfg.L1Line,
				ModelBytes:  cfg.L2PerCore,
				ModelLine:   cfg.L2Line,
				ModelWays:   cfg.L2Ways,
				IterSetFrac: cfg.IterSetFrac,
				Accuracy:    cme.AccuracyFor(p.Name),
				Seed:        1,
			})
			perNest := est.EstimateProgram(p)
			t.end()
			t.begin("core.map")
			sched := &sim.Schedule{Assign: make([]*core.Assignment, len(p.Nests))}
			for i := range p.Nests {
				sched.Assign[i] = mapper.MapPrivate(perNest[i])
			}
			t.end()
			t.begin("sim.run")
			la = sim.TotalCycles(sys.RunTiming(p, func(int) *sim.Schedule { return sched }))
		} else {
			t.begin("inspector.run")
			la = inspector.Run(sys, p, mapper, inspector.DefaultOverhead()).TotalCycles()
		}
		totals.addRefs(sys.Stats(), t.end())
		totals.addMachine(sys.Stats())
		t.end()
		out[name] = [2]int64{def, la}
	}
	return out, time.Since(start), nil
}

// traceSweep is the sweep's traced run: the simulator layers on the
// golden apps, checked against experiments.RunApp's answers.
func traceSweep(env *runEnv, o *outcome) error {
	t := newTracer(true)
	var totals simTotals
	got, on, err := traceSweepPass(t, &totals)
	if err != nil {
		return err
	}
	_, off, err := traceSweepPass(newTracer(false), &simTotals{})
	if err != nil {
		return err
	}
	reportOverhead(o, len(sweepApps), on, off)
	for _, name := range sweepApps {
		m := experiments.RunApp(name, 1, experiments.DefaultVariant(cache.Private))
		if c := got[name]; c[0] != m.DefCycles || c[1] != m.LACycles {
			o.fail("traced %s: cycles %d/%d, experiments.RunApp %d/%d", name, c[0], c[1], m.DefCycles, m.LACycles)
		}
	}
	setMedian(o, "sim.run_ms", t.durations("sim.run"), "ms")
	setMedian(o, "sim.baseline_ms", t.durations("sim.baseline"), "ms")
	setMedian(o, "inspector.run_ms", t.durations("inspector.run"), "ms")
	setMedian(o, "cme.estimate_ms", t.durations("cme.estimate"), "ms")
	setMedian(o, "core.map_ms", t.durations("core.map"), "ms")
	totals.report(o)
	o.note("sim.* over %v under the Table 4 defaults (private LLC), checked against experiments.RunApp", sweepApps)
	path, err := t.write(env)
	if err != nil {
		return err
	}
	o.note("%d spans written to %s", len(t.spans), path)
	return nil
}
