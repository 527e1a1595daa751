package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"locmap/internal/fingerprint"
	"locmap/internal/jobqueue"
	"locmap/internal/placeopt"
)

// The placement co-optimization surface: POST /v1/optimize inverts the
// paper's problem and searches the chip's MC placement space for a
// given workload (internal/placeopt), scoring hundreds of candidates
// through the analytical estimate tier and then verifying the top-K
// survivors (plus the default chip) with real simulations fanned out as
// ordinary "simulate" jobs through the batch queue. The endpoint is a
// first-class async citizen of the jobs API: it answers 202 with a job
// id, progress (phase, candidates evaluated, best-so-far cost) streams
// through GET /v1/jobs/{id}, the child simulations are visible in
// GET /v1/jobs, and the finished result is the job's Result payload.

// OptimizeRequest is the body of POST /v1/optimize: the shared target
// block plus the search knobs. A request carrying explicit MCs makes
// that chip — rather than the corner default — the incumbent the
// search must beat.
type OptimizeRequest struct {
	CommonRequest

	// Candidates is the number of placements scored through the
	// estimate tier (default placeopt.DefaultCandidates, capped at
	// placeopt.MaxCandidates).
	Candidates int `json:"candidates,omitempty"`

	// TopK is how many distinct survivors are verified with real
	// simulations (default placeopt.DefaultTopK, capped at
	// placeopt.MaxTopK).
	TopK int `json:"top_k,omitempty"`

	// Sites selects the candidate site pool: "edge" (default; MCs need
	// pin-out at the die perimeter) or "any".
	Sites string `json:"sites,omitempty"`

	// TimingIters is the verification simulations' timing-loop
	// override (0 keeps the source's value).
	TimingIters int `json:"timing_iters,omitempty"`
}

// Validate layers the search-knob checks on the shared target block.
func (r *OptimizeRequest) Validate() error {
	if r.Candidates < 0 || r.Candidates > placeopt.MaxCandidates {
		return fmt.Errorf("candidates must be in [0,%d], got %d", placeopt.MaxCandidates, r.Candidates)
	}
	if r.TopK < 0 || r.TopK > placeopt.MaxTopK {
		return fmt.Errorf("top_k must be in [0,%d], got %d", placeopt.MaxTopK, r.TopK)
	}
	switch r.Sites {
	case "", placeopt.SitesEdge, placeopt.SitesAny:
	default:
		return fmt.Errorf("sites must be %q or %q, got %q", placeopt.SitesEdge, placeopt.SitesAny, r.Sites)
	}
	if r.TimingIters < 0 {
		return fmt.Errorf("timing_iters must be >= 0, got %d", r.TimingIters)
	}
	return r.CommonRequest.Validate()
}

// normalized returns a copy with the search-knob defaults applied, so
// an explicit default and an omitted knob fingerprint identically.
func (r *OptimizeRequest) normalized() OptimizeRequest {
	n := *r
	if n.Candidates == 0 {
		n.Candidates = placeopt.DefaultCandidates
	}
	if n.TopK == 0 {
		n.TopK = placeopt.DefaultTopK
	}
	if n.Sites == "" {
		n.Sites = placeopt.SitesEdge
	}
	return n
}

// optimizeFingerprint derives the job's dedup key: the shared target
// block's canonical fingerprint folded with the normalized search
// knobs. It is a jobqueue single-flight key, never a plan-cache key —
// optimize results live only as retained job results.
func (r *OptimizeRequest) optimizeFingerprint() (string, error) {
	sp, err := r.spec("optimize")
	if err != nil {
		return "", err
	}
	base, err := sp.Fingerprint()
	if err != nil {
		return "", err
	}
	n := r.normalized()
	fp := fingerprint.New()
	fp.Str(base)
	fp.Int(int64(n.Candidates))
	fp.Int(int64(n.TopK))
	fp.Str(n.Sites)
	fp.Int(int64(n.TimingIters))
	return fp.Sum(), nil
}

// OptimizeAck is the body of a successful (202) POST /v1/optimize:
// the job to poll via GET /v1/jobs/{id}.
type OptimizeAck struct {
	RequestID   string         `json:"request_id"`
	JobID       string         `json:"job_id"`
	BatchID     string         `json:"batch_id"`
	Kind        string         `json:"kind"`
	Fingerprint string         `json:"fingerprint"`
	State       jobqueue.State `json:"state"`
	Resolved    Resolved       `json:"resolved"`
}

// OptimizeProgress is the running job's progress payload (JobStatus
// .Progress). Search-phase fields stay populated through the verify
// phase, so best-so-far cost never disappears from a poll.
type OptimizeProgress struct {
	// Phase is "compile", "search" or "verify".
	Phase string `json:"phase"`

	// Evaluated / Total / BestCost mirror placeopt.Progress.
	Evaluated int   `json:"evaluated,omitempty"`
	Total     int   `json:"total,omitempty"`
	BestCost  int64 `json:"best_cost,omitempty"`

	// VerifyDone / VerifyTotal count terminal verification children;
	// VerifyJobs lists their ids (poll them via GET /v1/jobs/{id}).
	VerifyDone  int      `json:"verify_done,omitempty"`
	VerifyTotal int      `json:"verify_total,omitempty"`
	VerifyJobs  []string `json:"verify_jobs,omitempty"`
}

// VerifiedPlacement is one search survivor with its simulation
// verdict.
type VerifiedPlacement struct {
	Placement placeopt.Placement `json:"placement"`

	// PredictedCycles is the estimate-tier cost that ranked the
	// placement; SimulatedCycles is the verification simulation's
	// location-aware cycle count (0 when the child failed).
	PredictedCycles int64 `json:"predicted_cycles"`
	SimulatedCycles int64 `json:"simulated_cycles,omitempty"`

	// ImprovementPct compares SimulatedCycles against the default
	// placement's (positive = the chip beats the default layout).
	ImprovementPct float64 `json:"improvement_pct,omitempty"`

	// JobID is the child simulation job (visible in GET /v1/jobs);
	// Error is its failure message when the verification failed.
	JobID string `json:"job_id"`
	Error string `json:"error,omitempty"`
}

// OptimizeResult is the finished job's Result payload.
type OptimizeResult struct {
	// Search is the estimate-tier search outcome (default chip, best
	// candidate, top-K survivors, candidates evaluated).
	Search *placeopt.Result `json:"search"`

	// Default and Verified are the simulation verdicts: Default is the
	// base chip, Verified the top-K survivors in search order. Best is
	// the lowest simulated-cycles entry among all of them — the default
	// chip included, so Best is never worse than Default.
	Default  VerifiedPlacement   `json:"default"`
	Verified []VerifiedPlacement `json:"verified"`
	Best     VerifiedPlacement   `json:"best"`

	// Resolved echoes the effective target configuration.
	Resolved Resolved `json:"resolved"`
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: %v", err))
		return
	}
	ofp, err := req.optimizeFingerprint()
	if err != nil {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidSource,
			"invalid source: %v", err))
		return
	}
	if info := infoFromContext(r.Context()); info != nil {
		info.fingerprint = ofp
	}
	body, err := json.Marshal(req)
	if err != nil {
		s.writeError(w, r, errf(http.StatusInternalServerError, ErrInternal, "%v", err))
		return
	}
	j, err := s.queue.Submit(RequestIDFromContext(r.Context()), jobqueue.Spec{
		Kind:        "optimize",
		Fingerprint: ofp,
		Request:     body,
	})
	switch {
	case errors.Is(err, jobqueue.ErrQueueFull):
		s.writeError(w, r, errf(http.StatusServiceUnavailable, ErrQueueFull, "%v", err))
		return
	case errors.Is(err, jobqueue.ErrClosed):
		s.writeError(w, r, errf(http.StatusServiceUnavailable, ErrOverloaded,
			"service is shutting down"))
		return
	case err != nil:
		s.writeError(w, r, errf(http.StatusInternalServerError, ErrInternal, "%v", err))
		return
	}
	s.writeJSON(w, http.StatusAccepted, OptimizeAck{
		RequestID:   RequestIDFromContext(r.Context()),
		JobID:       j.ID,
		BatchID:     j.BatchID,
		Kind:        j.Kind,
		Fingerprint: j.Fingerprint,
		State:       j.State,
		Resolved:    req.resolved(),
	})
}

// setOptimizeProgress publishes the job's progress snapshot;
// publication is best-effort and failures are ignored (the job may
// have been cancelled underneath the executor — the run loop notices
// via its context).
func (s *Server) setOptimizeProgress(jobID string, p OptimizeProgress) {
	raw, err := json.Marshal(p)
	if err != nil {
		return
	}
	s.queue.SetProgress(jobID, raw)
}

// runOptimize executes one optimize job on a batch queue worker:
// compile once, search the placement space through the estimate tier,
// fan the survivors out as child "simulate" batch jobs, wait for their
// verdicts and compose the result.
func (s *Server) runOptimize(ctx context.Context, j *jobqueue.Job, req *OptimizeRequest) ([]byte, error) {
	n := req.normalized()
	prog := OptimizeProgress{Phase: "compile"}
	s.setOptimizeProgress(j.ID, prog)

	cfg, opts, res, err := n.compileBound()
	if err != nil {
		return nil, err
	}

	prog.Phase = "search"
	search, err := placeopt.Search(placeopt.Config{
		Target:     cfg,
		Mapper:     opts.Mapper,
		Candidates: n.Candidates,
		TopK:       n.TopK,
		Seed:       n.Seed,
		Sites:      n.Sites,
		Progress: func(sp placeopt.Progress) {
			prog.Evaluated, prog.Total, prog.BestCost = sp.Evaluated, sp.Total, sp.BestCost
			s.setOptimizeProgress(j.ID, prog)
		},
	}, res)
	if err != nil {
		return nil, err
	}
	s.reg.Counter("locmapd_optimize_candidates_total",
		"Placement candidates scored through the estimate tier by /v1/optimize jobs.", nil).
		Add(uint64(search.Evaluated))

	// Verification fan-out: the default chip keeps the request's own
	// placement fields (sharing fingerprints — and cache entries — with
	// plain /v1/simulate traffic for the same target), each survivor
	// pins its MCs explicitly.
	children := []placeopt.Placement{{MCs: n.MCs, Banks: n.Banks}}
	predicted := []int64{search.Default.PredictedCycles}
	placements := []placeopt.Placement{search.Default.Placement}
	for _, sc := range search.Top {
		pl := sc.Placement
		pl.Banks = n.Banks
		children = append(children, pl)
		predicted = append(predicted, sc.PredictedCycles)
		placements = append(placements, sc.Placement)
	}
	specs := make([]jobqueue.Spec, 0, len(children))
	for _, pl := range children {
		sr := SimulateRequest{CommonRequest: n.CommonRequest, TimingIters: n.TimingIters}
		sr.MCs = pl.MCs
		sr.Banks = pl.Banks
		sp, err := sr.spec("simulate")
		if err != nil {
			return nil, err
		}
		key, err := sp.Fingerprint()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(sr)
		if err != nil {
			return nil, err
		}
		specs = append(specs, jobqueue.Spec{Kind: "simulate", Fingerprint: key, Request: body})
	}
	_, jobs, err := s.queue.SubmitBatch(j.SubmitRequestID, specs)
	if err != nil {
		return nil, fmt.Errorf("submit verification simulations: %w", err)
	}
	ids := make([]string, len(jobs))
	for i := range jobs {
		ids[i] = jobs[i].ID
	}
	prog.Phase = "verify"
	prog.VerifyTotal = len(ids)
	prog.VerifyJobs = ids
	s.setOptimizeProgress(j.ID, prog)

	// Await runs children still queued on this goroutine, so the
	// search never waits on a pool worker it may itself be holding.
	verdicts, err := s.queue.Await(ctx, ids, func(done int) {
		prog.VerifyDone = done
		s.setOptimizeProgress(j.ID, prog)
	})
	if err != nil {
		return nil, fmt.Errorf("optimize interrupted: %w", err)
	}

	out := OptimizeResult{Search: search, Resolved: n.resolved()}
	all := make([]VerifiedPlacement, len(verdicts))
	for i, v := range verdicts {
		vp := VerifiedPlacement{
			Placement:       placements[i],
			PredictedCycles: predicted[i],
			JobID:           ids[i],
		}
		switch {
		case v.State == jobqueue.StateDone:
			var sr SimResult
			if err := json.Unmarshal(v.Result, &sr); err != nil {
				vp.Error = fmt.Sprintf("decode verification result: %v", err)
			} else {
				vp.SimulatedCycles = sr.LocmapCycles
			}
		case v.Error != "":
			vp.Error = v.Error
		default:
			vp.Error = fmt.Sprintf("verification job ended %s", v.State)
		}
		all[i] = vp
	}
	if all[0].Error != "" {
		return nil, fmt.Errorf("default-placement verification failed: %s", all[0].Error)
	}
	defCycles := all[0].SimulatedCycles
	for i := range all {
		if all[i].Error == "" && defCycles > 0 {
			all[i].ImprovementPct = 100 * float64(defCycles-all[i].SimulatedCycles) / float64(defCycles)
		}
	}
	out.Default = all[0]
	out.Verified = all[1:]
	// Best by simulated cycles over the whole verified set, default
	// included — so the answer can never be worse than the default
	// chip.
	best := all[0]
	for _, vp := range all[1:] {
		if vp.Error == "" && vp.SimulatedCycles < best.SimulatedCycles {
			best = vp
		}
	}
	out.Best = best
	s.reg.Counter("locmapd_optimize_jobs_total",
		"Completed /v1/optimize search jobs.", nil).Inc()
	return json.Marshal(out)
}

// JobListResponse is the body of GET /v1/jobs.
type JobListResponse struct {
	RequestID string      `json:"request_id"`
	Jobs      []JobStatus `json:"jobs"`

	// NextCursor pages through older jobs when present: pass it back
	// as ?cursor= to continue. Cursors are valid for the life of the
	// process.
	NextCursor string `json:"next_cursor,omitempty"`
}

const (
	jobListDefaultLimit = 50
	jobListMaxLimit     = 500
)

// handleJobList serves GET /v1/jobs: every known job newest-first,
// with ?limit= (default 50, max 500), ?cursor= (from a previous
// response's next_cursor) and ?state= (queued, running, done, failed,
// cancelled, expired) filtering.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	opts := jobqueue.ListOptions{Limit: jobListDefaultLimit}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
				"invalid request: limit must be a positive integer, got %q", v))
			return
		}
		if n > jobListMaxLimit {
			n = jobListMaxLimit
		}
		opts.Limit = n
	}
	if v := q.Get("cursor"); v != "" {
		c, err := strconv.ParseInt(v, 10, 64)
		if err != nil || c < 1 {
			s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
				"invalid request: bad cursor %q", v))
			return
		}
		opts.Before = c
	}
	if v := q.Get("state"); v != "" {
		st := jobqueue.State(v)
		valid := false
		for _, known := range jobqueue.States {
			if st == known {
				valid = true
				break
			}
		}
		if !valid {
			s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
				"invalid request: unknown state %q", v))
			return
		}
		opts.State = st
	}
	jobs, next := s.queue.List(opts)
	resp := JobListResponse{
		RequestID: RequestIDFromContext(r.Context()),
		Jobs:      make([]JobStatus, 0, len(jobs)),
	}
	for i := range jobs {
		resp.Jobs = append(resp.Jobs, jobStatusFrom(&jobs[i]))
	}
	if next > 0 {
		resp.NextCursor = strconv.FormatInt(next, 10)
	}
	s.writeJSON(w, http.StatusOK, resp)
}
