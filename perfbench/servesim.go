package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"locmap/internal/jobqueue"
	"locmap/internal/server"
)

// serve-sim: POST /v1/estimate (whose cold answers enqueue a background
// verification simulation) and POST /v1/simulate on the same sources,
// open loop at a fixed rate, with a share of sources repeated. Beside
// that traffic one client submits distinct /v1/optimize jobs on a fixed
// period and polls each to done; a repeated optimize would be coalesced
// onto the finished job, so none repeats.
const (
	simFamilySize  = 2000
	simRate        = 12.0 // estimate + simulate requests per second
	simRepeatEvery = 5    // every fifth visit revisits an earlier source
	simWarmup      = 4    // source visits before the timed phase

	optPeriod     = 3 * time.Second
	optCandidates = 300 // sized so the estimate-tier search is most of a job
	optPoll       = 10 * time.Millisecond
	optTimeout    = 60 * time.Second

	verifyPoll    = 100 * time.Millisecond
	verifyTimeout = 30 * time.Second
)

// simFootprints stay well below one core's L2 share: simulating a
// program past it takes around a second on two cores, which an
// open-loop rate of several requests per second cannot absorb.
// serve-plan covers the large footprints on the compile path. Smaller
// programs buy more samples per run at the same load, and the estimate
// p50 needs them to hold steady across seeds: a 30 s run samples 144
// estimates and 144 simulations, two blocks of 72 combinations.
var simFootprints = footprints{0.004, 0.035, 3}

// optFootprints keep the optimize jobs' own verification simulations
// short, so the placement search dominates each job.
var optFootprints = footprints{0.003, 0.006, 1}

// simVisits draws n source visits in family order: every
// simRepeatEvery-th revisits a random earlier visit's source, the rest
// take the next new one. A run of n visits therefore sends exactly
// n - n/simRepeatEvery distinct sources from the front of the family,
// whole blocks of it when that is a multiple of the block.
func simVisits(seed uint64, n int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x73696d))
	out := make([]int, n)
	next := 0
	for i := range out {
		if i%simRepeatEvery == simRepeatEvery-1 {
			out[i] = out[rng.IntN(i)]
			continue
		}
		out[i] = next
		next++
	}
	return out
}

// simWarmVisits are the warm-up visits: new sources from the back of
// the family, so the timed phase still starts at the front of a block.
func simWarmVisits(familySize int) []int {
	out := make([]int, simWarmup)
	for i := range out {
		out[i] = familySize - 1 - i
	}
	return out
}

// simAnswer is what serve-sim keeps of one estimate or simulate reply.
type simAnswer struct {
	class   string // "estimate" or "simulate"
	key     int
	cached  bool
	latency time.Duration
	ok      bool

	alpha         float64 // estimate: predicted LLC hit fraction
	llcHit        float64 // simulate: simulated LLC hit fraction
	defaultCycles int64
	locmapCycles  int64
	fingerprint   string
	payloadHash   [32]byte
}

// decodeSim parses one serve-sim reply into an answer.
func decodeSim(r *reply) (simAnswer, error) {
	a := simAnswer{class: r.Class, key: r.Key, latency: r.Latency}
	if r.Err != nil {
		return a, r.Err
	}
	if r.Status != http.StatusOK {
		return a, fmt.Errorf("status %d: %.200s", r.Status, r.Body)
	}
	var resp server.MapResponse
	if err := json.Unmarshal(r.Body, &resp); err != nil {
		return a, fmt.Errorf("undecodable response: %v", err)
	}
	a.cached = resp.Cached
	a.fingerprint = resp.Fingerprint
	a.payloadHash = sha256.Sum256(resp.Plan)
	switch r.Class {
	case "estimate":
		var er server.EstimateResult
		if err := json.Unmarshal(resp.Plan, &er); err != nil || er.Estimate == nil || er.Plan == nil {
			return a, fmt.Errorf("undecodable estimate: %v", err)
		}
		a.alpha = er.Estimate.Alpha
	case "simulate":
		var sr server.SimResult
		if err := json.Unmarshal(resp.Plan, &sr); err != nil || sr.Plan == nil || sr.DefaultCycles <= 0 || sr.LocmapCycles <= 0 {
			return a, fmt.Errorf("undecodable simulation: %v", err)
		}
		a.llcHit = sr.Telemetry.LLCHitFraction
		a.defaultCycles = sr.DefaultCycles
		a.locmapCycles = sr.LocmapCycles
	}
	a.ok = true
	return a, nil
}

// optRun is one observed optimize job.
type optRun struct {
	spec       string
	latency    time.Duration // submit to done, as the client observed it
	jobs       []server.JobStatus
	searchBest int64 // predicted cycles of the search's best candidate
}

// simLive is what the traced replay must reproduce of the live run.
// Its methods treat a nil receiver as having no answers.
type simLive struct {
	alpha   map[int]float64  // family index -> estimate alpha
	cyc     map[int][2]int64 // family index -> default, locmap cycles
	optBest map[string]int64 // optimize spec name -> search best cost
}

func (l *simLive) estimateAlpha(k int) (float64, bool) {
	if l == nil {
		return 0, false
	}
	a, ok := l.alpha[k]
	return a, ok
}

func (l *simLive) cycles(k int) (int64, int64, bool) {
	if l == nil {
		return 0, 0, false
	}
	c, ok := l.cyc[k]
	return c[0], c[1], ok
}

func (l *simLive) optimizeBest(name string) (int64, bool) {
	if l == nil {
		return 0, false
	}
	b, ok := l.optBest[name]
	return b, ok
}

// optimizeClient runs distinct optimize jobs from specs, one at a time,
// starting each at its scheduled time or when the previous one is done.
// Its outcome holds only the jobs' counts and failures.
func optimizeClient(ctx context.Context, g *loadgen, specs []Spec, deadline time.Duration) ([]optRun, *outcome) {
	var runs []optRun
	o := newOutcome()
	start := time.Now()
	for i, s := range specs {
		due := time.Duration(i) * optPeriod
		if due >= deadline {
			break
		}
		waitUntil(ctx, start.Add(due))
		if ctx.Err() != nil {
			break
		}
		run, err := optimizeOnce(ctx, g, s)
		o.attempted++
		if err != nil {
			o.fail("serve-sim /v1/optimize %s: %v", s.Name, err)
		} else {
			runs = append(runs, run)
		}
	}
	return runs, o
}

// optimizeOnce submits one job, polls it to a terminal state, checks
// its answer and fetches its child simulations' job records.
func optimizeOnce(ctx context.Context, g *loadgen, s Spec) (optRun, error) {
	var run optRun
	body, err := json.Marshal(server.OptimizeRequest{CommonRequest: s.Request(), Candidates: optCandidates})
	if err != nil {
		return run, err
	}
	t0 := time.Now()
	st, raw, err := g.do(ctx, http.MethodPost, "/v1/optimize", body)
	if err != nil {
		return run, err
	}
	if st != http.StatusAccepted {
		return run, fmt.Errorf("submit: status %d: %.200s", st, raw)
	}
	var ack server.OptimizeAck
	if err := json.Unmarshal(raw, &ack); err != nil {
		return run, fmt.Errorf("undecodable ack: %v", err)
	}
	var job server.JobResponse
	for {
		if time.Since(t0) > optTimeout {
			return run, fmt.Errorf("job %s not done after %v", ack.JobID, optTimeout)
		}
		raw, err := g.get(ctx, "/v1/jobs/"+ack.JobID)
		if err != nil {
			return run, err
		}
		job = server.JobResponse{}
		if err := json.Unmarshal(raw, &job); err != nil {
			return run, fmt.Errorf("undecodable job: %v", err)
		}
		if job.State.Terminal() {
			break
		}
		time.Sleep(optPoll)
	}
	run.latency = time.Since(t0)
	if job.State != jobqueue.StateDone {
		return run, fmt.Errorf("job %s ended %s: %s", ack.JobID, job.State, job.Error)
	}
	var res server.OptimizeResult
	if err := json.Unmarshal(job.Result, &res); err != nil || res.Search == nil {
		return run, fmt.Errorf("undecodable optimize result: %v", err)
	}
	run.spec = s.Name
	run.searchBest = res.Search.Best.PredictedCycles
	best, def := res.Best.SimulatedCycles, res.Default.SimulatedCycles
	if res.Best.Error != "" || res.Default.Error != "" || def <= 0 {
		return run, fmt.Errorf("verification failed: %q %q", res.Default.Error, res.Best.Error)
	}
	if best > def {
		return run, fmt.Errorf("best placement simulates worse than the default (%d > %d cycles)", best, def)
	}
	run.jobs = append(run.jobs, job.JobStatus)
	var prog server.OptimizeProgress
	if err := json.Unmarshal(job.ProgressSummary, &prog); err == nil {
		for _, id := range prog.VerifyJobs {
			raw, err := g.get(ctx, "/v1/jobs/"+id)
			if err != nil {
				return run, err
			}
			var child server.JobResponse
			if err := json.Unmarshal(raw, &child); err != nil {
				return run, fmt.Errorf("undecodable child job: %v", err)
			}
			run.jobs = append(run.jobs, child.JobStatus)
		}
	}
	return run, nil
}

// scrapeCounter reads one unlabelled counter from a Prometheus text
// exposition (0 when absent).
func scrapeCounter(exposition []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// verifyCheck compares every distinct simulate answer with the
// independent simulation of the same source that the estimate tier's
// background verification ran: both cycle counts and the LLC hit
// fraction must be equal. It re-sends /v1/estimate for each source,
// untimed, until the cached answer carries its verification report; a
// cached estimate of an unverified entry re-enqueues a verification
// the full background queue dropped.
func verifyCheck(ctx context.Context, g *loadgen, fam []Spec, sims map[int]simAnswer, keys []int, o *outcome) error {
	deadline := time.Now().Add(verifyTimeout)
	pending := keys
	for len(pending) > 0 {
		var unverified []int
		for _, k := range pending {
			body, err := json.Marshal(server.MapRequest{CommonRequest: fam[k].Request()})
			if err != nil {
				return err
			}
			st, raw, err := g.do(ctx, http.MethodPost, "/v1/estimate", body)
			if err != nil {
				return err
			}
			var resp server.MapResponse
			var er server.EstimateResult
			if st != http.StatusOK || json.Unmarshal(raw, &resp) != nil || json.Unmarshal(resp.Plan, &er) != nil {
				o.attempted++
				o.fail("serve-sim verification of %s: status %d: %.200s", fam[k].Name, st, raw)
				continue
			}
			v := er.Verification
			if v == nil {
				unverified = append(unverified, k)
				continue
			}
			o.attempted++
			if a := sims[k]; v.DefaultCycles != a.defaultCycles || v.SimCycles != a.locmapCycles || v.SimAlpha != a.llcHit {
				o.fail("serve-sim %s: /v1/simulate answered %d/%d cycles and LLC hit %g, its verification simulated %d/%d and %g",
					fam[k].Name, a.defaultCycles, a.locmapCycles, a.llcHit, v.DefaultCycles, v.SimCycles, v.SimAlpha)
			}
		}
		pending = unverified
		if len(pending) > 0 && time.Now().After(deadline) {
			for _, k := range pending {
				o.attempted++
				o.fail("serve-sim %s: no verification report within %v", fam[k].Name, verifyTimeout)
			}
			break
		}
		if len(pending) > 0 {
			time.Sleep(verifyPoll)
		}
	}
	return nil
}

// simCalls lays out visits as an open-loop schedule at simRate: each
// visit sends an estimate, then in the next slot a simulate of the
// same source.
func simCalls(fam []Spec, visits []int) ([]call, error) {
	due := schedule(simRate, 2*len(visits))
	calls := make([]call, 0, len(due))
	for i, k := range visits {
		body, err := json.Marshal(server.MapRequest{CommonRequest: fam[k].Request()})
		if err != nil {
			return nil, err
		}
		calls = append(calls,
			call{Due: due[2*i], Method: http.MethodPost, Path: "/v1/estimate", Body: body, Class: "estimate", Key: k},
			call{Due: due[2*i+1], Method: http.MethodPost, Path: "/v1/simulate", Body: body, Class: "simulate", Key: k})
	}
	return calls, nil
}

func runServeSim(ctx context.Context, env *runEnv) (*outcome, error) {
	o := newOutcome()
	fam := Family(env.seed, simFamilySize, simFootprints)
	optFam := Family(env.seed^0x6f7074, 256, optFootprints)
	visits := simVisits(env.seed, int(env.seconds.Seconds()*simRate/2))

	setup, err := measureSetups(ctx, env.locmapd, env.work, setupRepeats)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", setup, "s")
	d, _, err := startDaemon(env.locmapd, env.work)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	g := newLoadgen(d.base, genConns())

	var answers []simAnswer
	check := func(replies []*reply) {
		for _, r := range replies {
			a, err := decodeSim(r)
			r.Body = nil
			o.attempted++
			if err != nil {
				o.fail("serve-sim %s %s: %v", r.Path, fam[r.Key].Name, err)
			}
			answers = append(answers, a)
		}
	}
	warm, err := simCalls(fam, simWarmVisits(len(fam)))
	if err != nil {
		return nil, err
	}
	check(g.run(ctx, warm))
	nWarmAnswers := len(answers)

	timed, err := simCalls(fam, visits)
	if err != nil {
		return nil, err
	}
	var runs []optRun
	var optOutcome *outcome
	optDone := make(chan struct{})
	go func() {
		defer close(optDone)
		runs, optOutcome = optimizeClient(ctx, g, optFam, env.seconds)
	}()
	replies := g.run(ctx, timed)
	<-optDone
	o.absorb(optOutcome)
	check(replies)

	// Latencies come from the timed phase only; the output checks and
	// the model figures cover every answer.
	var est, sim, lags []float64
	backlogMax := 0
	for _, a := range answers[nWarmAnswers:] {
		if !a.ok || a.cached {
			continue
		}
		switch a.class {
		case "estimate":
			est = append(est, ms(a.latency))
		case "simulate":
			sim = append(sim, ms(a.latency))
		}
	}
	for _, r := range replies {
		lags = append(lags, ms(r.Lag))
		backlogMax = max(backlogMax, r.Backlog)
	}
	o.set("estimate_p50_ms", quantile(est, 0.5), "ms")
	o.set("estimate_p90_ms", quantile(est, 0.9), "ms")
	o.set("simulate_p50_ms", quantile(sim, 0.5), "ms")
	o.set("simulate_p90_ms", quantile(sim, 0.9), "ms")
	o.set("fast_p50_ms", quantile(est, 0.5), "ms")
	o.set("slow_p50_ms", quantile(sim, 0.5), "ms")
	o.note("serve-sim timed phase: %.0f req/s for %v, %d uncached estimates, %d uncached simulates, %d optimize jobs",
		simRate, env.seconds, len(est), len(sim), len(runs))

	// Output checks across endpoints: one simulate payload per
	// fingerprint, and the model figures over distinct sources. A
	// repeated simulate is a plan-cache hit, so verifyCheck below is
	// what compares each answer with an independent simulation.
	simByFP := map[string][32]byte{}
	alphaByKey := map[int]float64{}
	simByKey := map[int]simAnswer{}
	for _, a := range answers {
		if !a.ok {
			continue
		}
		switch a.class {
		case "estimate":
			if prev, ok := alphaByKey[a.key]; ok && prev != a.alpha {
				o.fail("serve-sim /v1/estimate %s: alpha %g, earlier answer %g", fam[a.key].Name, a.alpha, prev)
			}
			alphaByKey[a.key] = a.alpha
		case "simulate":
			if h, ok := simByFP[a.fingerprint]; ok && h != a.payloadHash {
				o.fail("serve-sim /v1/simulate %s: two answers for fingerprint %s differ", fam[a.key].Name, a.fingerprint[:12])
			}
			simByFP[a.fingerprint] = a.payloadHash
			simByKey[a.key] = a
		}
	}
	// Sorted keys keep the floating-point sums, and so the figures,
	// identical for a seed.
	keys := make([]int, 0, len(simByKey))
	for k := range simByKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var alphaErr, ratios []float64
	for _, k := range keys {
		s := simByKey[k]
		ratios = append(ratios, float64(s.locmapCycles)/float64(s.defaultCycles))
		if alpha, ok := alphaByKey[k]; ok {
			alphaErr = append(alphaErr, math.Abs(alpha-s.llcHit))
		}
	}
	o.set("estimate_alpha_err", mean(alphaErr), "fraction")
	o.set("exec_gain_pct", 100*(1-geomean(ratios)), "%")
	o.note("model figures over %d distinct simulated sources, %d also estimated", len(ratios), len(alphaErr))

	var optLat, jobWait, jobRun []float64
	for _, r := range runs {
		optLat = append(optLat, r.latency.Seconds())
		for _, j := range r.jobs {
			if j.StartedAt != nil && j.FinishedAt != nil {
				jobWait = append(jobWait, ms(j.StartedAt.Sub(j.SubmittedAt)))
				jobRun = append(jobRun, ms(j.FinishedAt.Sub(*j.StartedAt)))
			}
		}
	}
	o.set("optimize_p50_s", quantile(optLat, 0.5), "s")
	o.set("jobqueue.wait_ms", quantile(jobWait, 0.5), "ms")
	o.set("jobqueue.run_ms", quantile(jobRun, 0.5), "ms")
	o.set("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms")
	o.set("loadgen.backlog_max", float64(backlogMax), "count")

	exposition, err := collectServerLayer(ctx, g, d, o)
	if err != nil {
		return nil, err
	}
	if len(est) > 0 {
		dropped := scrapeCounter(exposition, "locmapd_verify_dropped_total")
		o.set("jobqueue.verify_dropped_frac", dropped/float64(len(est)), "fraction")
		o.note("verification: %.0f dropped of %d uncached estimates", dropped, len(est))
	}

	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	o.set("rss_peak_mb", rss, "MiB")
	if err := verifyCheck(ctx, g, fam, simByKey, keys, o); err != nil {
		return nil, err
	}
	o.note("each of the %d distinct simulate answers compared with its source's background verification", len(keys))
	if err := d.stop(); err != nil {
		return nil, err
	}
	if env.trace {
		live := &simLive{alpha: alphaByKey, cyc: map[int][2]int64{}, optBest: map[string]int64{}}
		for k, a := range simByKey {
			live.cyc[k] = [2]int64{a.defaultCycles, a.locmapCycles}
		}
		for _, r := range runs {
			live.optBest[r.spec] = r.searchBest
		}
		if err := replaySim(env, fam, visits, optFam, live, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}
