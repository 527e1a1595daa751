package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"locmap/internal/server"
)

// serve-plan: POST /v1/map (the default static tier) over the program
// family with zipf popularity. The family holds more distinct
// fingerprints than the plan cache's default 1024 entries, so about
// half the requests hit and eviction runs. A fixed-rate phase measures
// latency; a stepped-rate ladder then finds the sustained rate.
const (
	planFamilySize = 12000
	planZipfS      = 1.07 // popularity exponent over family ranks
	planZipfV      = 4.0

	planFixedRate = 40.0
	planWarmup    = 2 * time.Second

	// planP99Limit is the sustained_rps latency limit: a ladder step
	// passes while the p99 over all its requests stays under it and
	// the generator's backlog does not grow. It sits above the p99 of
	// an unloaded server, which the largest programs' compiles set at
	// 130-160 ms on the reference host, so a step fails on queueing,
	// not on drawing one large program.
	planP99Limit = 300 * time.Millisecond
)

// planLadder is the fixed rate ladder, in requests per second. Each
// step is 1.44 times the last; the ladder gets the third of the run
// after the fixed phase, and every step fits in it. Two cores saturate
// below the top step (half the requests compile, about 10 ms each).
var planLadder = []float64{104, 149, 215, 310, 446}

// zipfSequence draws n family indices with zipf popularity. Each
// popularity rank gets the next unused program of the family the first
// time it is drawn, so the distinct programs a run sends are a prefix
// of the family, whole blocks of it, and cover every stratum equally at
// any seed; the popularity curve is zipf all the same. The family
// shuffles each block per seed, so the hottest programs differ per
// seed.
func zipfSequence(seed uint64, familySize, n int) []int {
	rng := rand.New(rand.NewPCG(seed, 0x7a697066))
	z := rand.NewZipf(rng, planZipfS, planZipfV, uint64(familySize-1))
	program := map[uint64]int{}
	out := make([]int, n)
	for i := range out {
		rank := z.Uint64()
		k, ok := program[rank]
		if !ok {
			k = len(program)
			program[rank] = k
		}
		out[i] = k
	}
	return out
}

// mapAnswer is what serve-plan keeps of one /v1/map reply.
type mapAnswer struct {
	cached  bool
	latency time.Duration
	ok      bool
}

// planChecker holds the first plan seen per fingerprint; every later
// answer for that fingerprint, cached or recomputed, must match it.
type planChecker struct {
	mu    sync.Mutex
	first map[string][32]byte
	live  map[int]liveMap // family index -> first answer
}

// liveMap is the first live answer for one family index, which the
// traced replay must reproduce.
type liveMap struct {
	fingerprint string
	planHash    [32]byte // SHA-256 of the plan payload
	schedHash   [32]byte // SHA-256 of the JSON schedule alone
}

func newPlanChecker() *planChecker {
	return &planChecker{first: map[string][32]byte{}, live: map[int]liveMap{}}
}

// lookup returns the live answer for family index k; a nil checker
// has none.
func (pc *planChecker) lookup(k int) (liveMap, bool) {
	if pc == nil {
		return liveMap{}, false
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	m, ok := pc.live[k]
	return m, ok
}

// check decodes one /v1/map reply and returns the answer or the reason
// it counts as a failed operation.
func (pc *planChecker) check(r *reply) (mapAnswer, error) {
	a := mapAnswer{latency: r.Latency}
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
	var plan server.Plan
	if err := json.Unmarshal(resp.Plan, &plan); err != nil || len(plan.Schedule) == 0 {
		return a, fmt.Errorf("undecodable plan: %v", err)
	}
	sched, err := json.Marshal(plan.Schedule)
	if err != nil {
		return a, err
	}
	a.cached = resp.Cached
	planHash := sha256.Sum256(resp.Plan)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if first, ok := pc.first[resp.Fingerprint]; !ok {
		pc.first[resp.Fingerprint] = planHash
		pc.live[r.Key] = liveMap{fingerprint: resp.Fingerprint, planHash: planHash, schedHash: sha256.Sum256(sched)}
	} else if first != planHash {
		return a, fmt.Errorf("fingerprint %s: plan differs from the first answer (cached=%v)", resp.Fingerprint[:12], resp.Cached)
	}
	a.ok = true
	return a, nil
}

// runPhase plays the family indices seq at rate, then checks every
// answer; it returns the answers and replies in completion order.
func runPhase(ctx context.Context, g *loadgen, fam []Spec, bodies [][]byte, seq []int, rate float64, pc *planChecker, o *outcome) ([]mapAnswer, []*reply) {
	due := schedule(rate, len(seq))
	calls := make([]call, len(seq))
	for i, k := range seq {
		calls[i] = call{Due: due[i], Method: http.MethodPost, Path: "/v1/map", Body: bodies[k], Class: "map", Key: k}
	}
	replies := g.run(ctx, calls)
	answers := make([]mapAnswer, len(replies))
	for i, r := range replies {
		a, err := pc.check(r)
		r.Body = nil
		o.attempted++
		if err != nil {
			o.fail("serve-plan /v1/map %s: %v", fam[r.Key].Name, err)
		}
		answers[i] = a
	}
	return answers, replies
}

// stepP99 is the p99 over a phase's replies with failures counted as
// over any limit.
func stepP99(answers []mapAnswer) time.Duration {
	xs := make([]float64, len(answers))
	for i, a := range answers {
		xs[i] = float64(a.latency)
		if !a.ok {
			xs[i] = math.Inf(1)
		}
	}
	return time.Duration(quantile(xs, 0.99))
}

func runServePlan(ctx context.Context, env *runEnv) (*outcome, error) {
	o := newOutcome()
	fam := Family(env.seed, planFamilySize, planFootprints)
	bodies := make([][]byte, len(fam))
	for i, s := range fam {
		b, err := json.Marshal(server.MapRequest{CommonRequest: s.Request()})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	fixed := env.seconds * 2 / 3
	ladderBudget := env.seconds - fixed
	// The ladder budget split over the steps, with a fifth left for
	// each step's last answers.
	step := ladderBudget * 4 / time.Duration(5*len(planLadder))
	nWarm := int(planFixedRate * planWarmup.Seconds())
	nFixed := int(planFixedRate * fixed.Seconds())
	nLadder := 0
	for _, r := range planLadder {
		nLadder += int(r * step.Seconds())
	}
	seq := zipfSequence(env.seed, len(fam), nWarm+nFixed+nLadder)

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
	pc := newPlanChecker()

	// Warm-up: same stream, not timed, still checked.
	runPhase(ctx, g, fam, bodies, seq[:nWarm], planFixedRate, pc, o)
	pos := nWarm

	answers, replies := runPhase(ctx, g, fam, bodies, seq[pos:pos+nFixed], planFixedRate, pc, o)
	pos += nFixed
	var hits, maps, lags []float64
	backlogMax := 0
	for i, a := range answers {
		lags = append(lags, ms(replies[i].Lag))
		backlogMax = max(backlogMax, replies[i].Backlog)
		if !a.ok {
			continue
		}
		if a.cached {
			hits = append(hits, ms(a.latency))
		} else {
			maps = append(maps, ms(a.latency))
		}
	}
	o.set("hit_p50_ms", quantile(hits, 0.5), "ms")
	o.set("hit_p99_ms", quantile(hits, 0.99), "ms")
	o.set("map_p50_ms", quantile(maps, 0.5), "ms")
	o.set("map_p99_ms", quantile(maps, 0.99), "ms")
	o.set("fast_p50_ms", quantile(hits, 0.5), "ms")
	o.set("slow_p50_ms", quantile(maps, 0.5), "ms")
	o.note("serve-plan fixed phase: %.0f req/s for %v, %d hits, %d uncached maps", planFixedRate, fixed, len(hits), len(maps))
	// Peak memory is read before the ladder: how far the ladder gets,
	// and so how many programs it adds to the plan cache, varies.
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	o.set("rss_peak_mb", rss, "MiB")

	// Ladder: stop at the first step that misses the limit or whose
	// backlog grows. A step that no longer fits in the budget (a slow
	// drain of the previous step) also ends it, and so does the top.
	sustained := 0.0
	ladderStart := time.Now()
	for _, rate := range planLadder {
		if time.Since(ladderStart)+step > ladderBudget {
			o.note("ladder out of budget before %.0f req/s: sustained_rps is a lower bound", rate)
			break
		}
		n := int(rate * step.Seconds())
		stepAnswers, stepReplies := runPhase(ctx, g, fam, bodies, seq[pos:pos+n], rate, pc, o)
		pos += n
		p99 := stepP99(stepAnswers)
		var early, late []float64
		for _, r := range stepReplies {
			switch {
			case r.Due < step/4:
				early = append(early, float64(r.Backlog))
			case r.Due >= step*3/4:
				late = append(late, float64(r.Backlog))
			}
		}
		// A backlog that rises by a tenth of the step's requests is
		// growing (the rate is some 15% past capacity); less is a
		// burst of large compiles.
		grew := median(late) > median(early)+max(float64(g.conns), float64(n)/10)
		pass := p99 < planP99Limit && !grew
		o.note("ladder %5.0f req/s for %v: p99 %7.2f ms, backlog %.0f -> %.0f, pass=%v", rate, step, ms(p99), median(early), median(late), pass)
		if !pass {
			break
		}
		sustained = rate
	}
	if sustained == planLadder[len(planLadder)-1] {
		o.note("every ladder step passed: sustained_rps is capped at the top step")
	}
	o.set("sustained_rps", sustained, "1/s")

	if _, err := collectServerLayer(ctx, g, d, o); err != nil {
		return nil, err
	}
	o.set("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms")
	o.set("loadgen.backlog_max", float64(backlogMax), "count")

	if err := d.stop(); err != nil {
		return nil, err
	}
	if env.trace {
		if err := replayPlan(env, fam, seq[:nWarm+nFixed], pc, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// collectServerLayer reads the plan-cache counters from /v1/stats and
// times one /metrics scrape, returning the exposition.
func collectServerLayer(ctx context.Context, g *loadgen, d *daemon, o *outcome) ([]byte, error) {
	body, err := g.get(ctx, "/v1/stats")
	if err != nil {
		return nil, err
	}
	var st server.StatsSnapshot
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	if tot := st.Cache.Hits + st.Cache.Misses; tot > 0 {
		o.set("plancache.hit_ratio", float64(st.Cache.Hits)/float64(tot), "fraction")
	} else {
		o.set("plancache.hit_ratio", 0, "fraction")
	}
	o.set("plancache.evictions", float64(st.Cache.Evictions), "count")
	o.note("plancache: %d hits of %d lookups, %d evictions, %d of %d entries held",
		st.Cache.Hits, st.Cache.Hits+st.Cache.Misses, st.Cache.Evictions, st.Cache.Entries, st.Cache.Capacity)
	t0 := time.Now()
	st2, raw, err := (&loadgen{client: g.client}).do(ctx, http.MethodGet, d.metrics, nil)
	if err != nil || st2 != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d: %v", st2, err)
	}
	o.set("metrics.scrape_ms", ms(time.Since(t0)), "ms")
	return raw, nil
}
