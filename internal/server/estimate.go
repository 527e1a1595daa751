package server

import (
	"encoding/json"
	"math"
	"net/http"

	"locmap/internal/estimate"
	"locmap/internal/jobqueue"
	"locmap/internal/metrics"
)

// The analytical fast tier: /v1/estimate (and /v1/map under
// Config.FastTier) answers a cold request from internal/estimate in
// microseconds instead of simulating, then enqueues a background
// verification job that runs the full simulation, measures how far
// the estimate drifted, and upgrades the cached plan in place —
// tier "estimate" becomes "verified" (within tolerance) or "refined"
// (outside it, with the simulated numbers attached). A client that
// polls the same request later sees the same fingerprint at the
// upgraded tier.

// Serving tiers beyond internal/estimate's lifecycle: the legacy
// pipelines are tiers too, so every response can carry one.
const (
	// TierStatic is the compile-only /v1/map pipeline: a schedule
	// with no predicted or simulated execution attached.
	TierStatic = "static"

	// TierSim is the full-simulation /v1/simulate pipeline, the most
	// authoritative tier.
	TierSim = "sim"
)

const (
	tierServedName = "locmapd_tier_served_total"
	tierServedHelp = "Responses served by confidence tier."
)

// servingTiers is every tier a response can carry, for eager metric
// registration.
var servingTiers = []string{
	estimate.TierEstimate, estimate.TierVerified, estimate.TierRefined,
	TierSim, TierStatic,
}

// observeTier counts one served response in its tier's counter.
func (s *Server) observeTier(tier string) {
	s.reg.Counter(tierServedName, tierServedHelp, metrics.Labels{"tier": tier}).Inc()
}

// tierForKind maps a batch-job kind to the tier its payload carries.
func tierForKind(kind string) string {
	if kind == "simulate" {
		return TierSim
	}
	return TierStatic
}

// EstimateResult is the payload of every fast-tier response: the
// compiled plan plus the analytical prediction, and — once background
// verification has run — the measured drift (and, for refined plans,
// the full simulation result). The Tier field always matches the
// response envelope's, so the payload is self-describing when read
// back from a batch job or the cache.
type EstimateResult struct {
	Tier string `json:"tier"`

	// Plan is the compiled mapping plan (same shape as /v1/map).
	Plan *Plan `json:"plan"`

	// Estimate is the analytical prediction (predicted α, per-nest
	// etas and cycles, per-leg NoC cost).
	Estimate *estimate.Plan `json:"estimate"`

	// Verification reports the background simulation's comparison;
	// nil until the verify job has completed.
	Verification *VerificationReport `json:"verification,omitempty"`

	// Sim is the full simulation result, attached only to refined
	// plans (the estimate was outside tolerance, so the simulated
	// numbers are the answer).
	Sim *SimResult `json:"sim,omitempty"`
}

// VerificationReport is the predicted-vs-simulated comparison of one
// background verification run.
type VerificationReport struct {
	// SimAlpha and SimCycles are the simulator's measured LLC hit
	// fraction and location-aware cycle count.
	SimAlpha  float64 `json:"sim_alpha"`
	SimCycles int64   `json:"sim_cycles"`

	// DefaultCycles is the simulated round-robin baseline.
	DefaultCycles int64 `json:"default_cycles"`

	// AlphaDrift is |predicted α − simulated α|; LatencyDrift is the
	// relative cycle-count error |predicted − simulated| / simulated.
	AlphaDrift   float64 `json:"alpha_drift"`
	LatencyDrift float64 `json:"latency_drift"`

	// WithinTolerance reports both drifts were inside the configured
	// tolerances (tier "verified"; outside → "refined").
	WithinTolerance bool `json:"within_tolerance"`
}

// verifyRequest is the persisted body of a background verification
// job: the plan-cache key to upgrade plus the original request.
type verifyRequest struct {
	// Key is the fast-tier plan-cache entry the verdict upgrades.
	Key string `json:"key"`

	Request MapRequest `json:"request"`
}

// computeEstimate compiles the request and runs the analytical model:
// the whole fast-tier pipeline, no simulation anywhere.
func computeEstimate(req *MapRequest) (*EstimateResult, error) {
	cfg, opts, res, err := req.compileBound()
	if err != nil {
		return nil, err
	}
	est := estimate.New(estimate.Config{Cfg: cfg, Mapper: opts.Mapper})
	return &EstimateResult{
		Tier:     estimate.TierEstimate,
		Plan:     planFromResult(res),
		Estimate: est.FromResult(res),
	}, nil
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req MapRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serveEstimate(w, r, &req, "estimate")
}

// serveEstimate is serve()'s fast-tier counterpart: same validate /
// cache / worker-pool skeleton, but results live under the "estimate"
// fingerprint namespace (shared between /v1/estimate and fast-tier
// /v1/map), and every response at tier "estimate" makes sure a
// background verification job exists for it. endpoint only labels the
// cache metrics.
func (s *Server) serveEstimate(w http.ResponseWriter, r *http.Request, req *MapRequest, endpoint string) {
	if err := req.Validate(); err != nil {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: %v", err))
		return
	}
	spec, err := req.spec("estimate")
	if err != nil {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: %v", err))
		return
	}
	key, err := spec.Fingerprint()
	if err != nil {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidSource,
			"invalid source: %v", err))
		return
	}
	info := infoFromContext(r.Context())
	if info != nil {
		info.fingerprint = key
	}
	resp := MapResponse{
		RequestID:   RequestIDFromContext(r.Context()),
		Fingerprint: key,
		Resolved:    req.resolved(),
	}
	cacheReqs := func(result string) {
		s.reg.Counter("locmapd_cache_requests_total",
			"Cacheable requests by endpoint and plan-cache outcome.",
			metrics.Labels{"endpoint": endpoint, "result": result}).Inc()
	}
	if entry, ok := s.cache.GetEntry(key); ok {
		cacheReqs("hit")
		if info != nil {
			info.cached = true
		}
		tier := entry.Tier
		if tier == "" {
			tier = estimate.TierEstimate
		}
		if tier == estimate.TierEstimate {
			// Still unverified: the verify job may have been dropped
			// (queue full) or its result may have expired after the
			// entry was evicted and re-estimated. ensureVerify
			// re-applies a finished verdict or re-enqueues; either
			// way a later poll observes the upgrade.
			s.ensureVerify(RequestIDFromContext(r.Context()), req, key)
		}
		resp.Cached = true
		resp.Tier = tier
		resp.Plan = entry.Payload
		s.observeTier(tier)
		s.writeJSON(w, http.StatusOK, resp)
		return
	}
	cacheReqs("miss")
	// On a remote hit or forward the owner runs the verify lifecycle
	// for its own cache entry; this node does not enqueue one.
	handled, ci := s.clusterRespond(w, r, req, endpoint, key, &resp)
	if handled {
		return
	}
	payload, apiErr := s.runJob(r.Context(), key, estimate.TierEstimate, func() ([]byte, error) {
		er, err := computeEstimate(req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(er)
	})
	if apiErr != nil {
		s.writeError(w, r, apiErr)
		return
	}
	s.clusterPublish(ci, key, payload, estimate.TierEstimate)
	resp.Cluster = ci
	s.ensureVerify(RequestIDFromContext(r.Context()), req, key)
	resp.Tier = estimate.TierEstimate
	resp.Plan = payload
	s.observeTier(estimate.TierEstimate)
	s.writeJSON(w, http.StatusOK, resp)
}

// ensureVerify guarantees a verification exists for the fast-tier
// entry under key: if a finished verify job still holds the verdict
// it is re-applied to the cache, otherwise a background job is
// enqueued (deduplicated by fingerprint inside the queue, so repeated
// polls of an unverified entry never fan out). Verification is
// best-effort — a full background queue drops the job and counts it.
func (s *Server) ensureVerify(requestID string, req *MapRequest, key string) {
	sp, err := req.spec("verify")
	if err != nil {
		return
	}
	vfp, err := sp.Fingerprint()
	if err != nil {
		return
	}
	if payload, ok := s.queue.Result(vfp); ok {
		var er EstimateResult
		if json.Unmarshal(payload, &er) == nil && er.Tier != "" {
			s.cache.Upgrade(key, payload, er.Tier)
		}
		return
	}
	body, err := json.Marshal(verifyRequest{Key: key, Request: *req})
	if err != nil {
		return
	}
	_, err = s.queue.SubmitBackground(requestID, jobqueue.Spec{
		Kind:        "verify",
		Fingerprint: vfp,
		Request:     body,
	})
	if err != nil {
		s.verifyDropped.Inc()
	}
}

// runVerify executes one background verification: recompute the
// (deterministic) estimate, run the full simulation, measure the
// drift, and upgrade the fast-tier cache entry in place with the
// verdict-tagged payload.
func (s *Server) runVerify(vr *verifyRequest) ([]byte, error) {
	er, err := computeEstimate(&vr.Request)
	if err != nil {
		return nil, err
	}
	if err := s.verifyEstimate(er, vr.Request.CommonRequest); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(er)
	if err != nil {
		return nil, err
	}
	s.cache.Upgrade(vr.Key, payload, er.Tier)
	return payload, nil
}

// verifyEstimate simulates req, measures how far the estimate er
// drifted, and stamps er with the verdict: tier "verified" when both
// drifts are within tolerance, otherwise "refined" with the simulation
// attached. The drifts also feed the verification histograms.
func (s *Server) verifyEstimate(er *EstimateResult, req CommonRequest) error {
	res, err := simulate(&SimulateRequest{CommonRequest: req})
	if err != nil {
		return err
	}
	s.observeSim(res)
	simAlpha := res.Telemetry.LLCHitFraction
	alphaDrift := math.Abs(er.Estimate.Alpha - simAlpha)
	latencyDrift := 0.0
	if res.LocmapCycles > 0 {
		latencyDrift = math.Abs(float64(er.Estimate.PredictedCycles-res.LocmapCycles)) /
			float64(res.LocmapCycles)
	}
	within := alphaDrift <= s.cfg.AlphaTolerance && latencyDrift <= s.cfg.LatencyTolerance
	er.Tier = estimate.TierVerified
	if !within {
		er.Tier = estimate.TierRefined
		er.Sim = res
	}
	er.Verification = &VerificationReport{
		SimAlpha:        simAlpha,
		SimCycles:       res.LocmapCycles,
		DefaultCycles:   res.DefaultCycles,
		AlphaDrift:      alphaDrift,
		LatencyDrift:    latencyDrift,
		WithinTolerance: within,
	}
	s.alphaDrift.Observe(alphaDrift)
	s.latencyDrift.Observe(latencyDrift)
	return nil
}
