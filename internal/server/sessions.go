package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"locmap/internal/affinity"
	"locmap/internal/estimate"
	"locmap/internal/jobqueue"
	"locmap/internal/metrics"
	"locmap/internal/tenancy"
)

// The sessions surface: long-running workloads register once and the
// service keeps scheduling them. A session holds a current plan (the
// fast-tier EstimateResult shape) plus the tenancy epoch controller's
// state: pushed telemetry accumulates in a drift window, and when the
// windowed observation diverges from the plan's prediction past
// -drift-alpha-tol the controller enqueues a background "remap" job —
// re-estimate, re-verify by simulation, re-run the group co-placement,
// swap the plan atomically. Sessions that resolve to the same target
// machine form a tenant group sharing one mesh; internal/tenancy's
// co-placement assigns each group member a core partition minimizing
// cross-tenant NoC/MC interference, and any group membership change
// (register, delete, drift remap) re-partitions the group with
// "rebalance" epochs on the other members.
//
// A periodic sweeper (Config.RemapInterval) re-evaluates every
// session's trigger, so a remap suppressed at push time (another remap
// in flight, background queue full) still fires within one interval.

// SessionRequest is the body of POST /v1/sessions: the shared target
// block plus a client-chosen display name.
type SessionRequest struct {
	CommonRequest

	// Name labels the session in /metrics and listings (optional;
	// [A-Za-z0-9._-], at most 64 chars). Empty uses the session id.
	Name string `json:"name,omitempty"`
}

// Validate extends CommonRequest validation with the session fields.
func (r *SessionRequest) Validate() error {
	if len(r.Name) > 64 {
		return fmt.Errorf("name exceeds 64 characters")
	}
	for _, c := range r.Name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("name contains %q; allowed: letters, digits, '.', '_', '-'", c)
		}
	}
	return r.CommonRequest.Validate()
}

// SessionInfo is the wire view of one session.
type SessionInfo struct {
	SessionID string    `json:"session_id"`
	Name      string    `json:"name,omitempty"`
	GroupKey  string    `json:"group_key"`
	CreatedAt time.Time `json:"created_at"`

	// Tenants is the session's group size (sessions sharing its
	// target machine, itself included).
	Tenants int `json:"tenants"`

	// Epoch and Tier describe the current plan; Drift is the windowed
	// observed-vs-predicted deviation accumulated so far.
	Epoch int           `json:"epoch"`
	Tier  string        `json:"tier"`
	Drift tenancy.Drift `json:"drift"`

	// Cores is the co-placement's core partition (absent for a
	// sole-tenant session, which owns the whole mesh); Interference is
	// the group's cross-tenant interference score.
	Cores        []int   `json:"cores,omitempty"`
	Interference float64 `json:"interference,omitempty"`
}

// SessionResponse is the body of POST /v1/sessions, GET
// /v1/sessions/{id} and DELETE /v1/sessions/{id}.
type SessionResponse struct {
	RequestID string `json:"request_id"`
	SessionInfo

	// Deleted marks a DELETE response.
	Deleted bool `json:"deleted,omitempty"`
}

// SessionListResponse is the body of GET /v1/sessions.
type SessionListResponse struct {
	RequestID string        `json:"request_id"`
	Sessions  []SessionInfo `json:"sessions"`
}

// TelemetryResponse is the body of POST /v1/sessions/{id}/telemetry.
type TelemetryResponse struct {
	RequestID string        `json:"request_id"`
	SessionID string        `json:"session_id"`
	Drift     tenancy.Drift `json:"drift"`

	// RemapTriggered reports this push crossed the drift threshold and
	// a background remap job was enqueued (its id in RemapJobID).
	RemapTriggered bool   `json:"remap_triggered"`
	RemapJobID     string `json:"remap_job_id,omitempty"`

	// Epoch is the current plan's epoch at response time.
	Epoch int `json:"epoch"`
}

// SessionPlanResponse is the body of GET /v1/sessions/{id}/plan: the
// current plan (atomically consistent — a concurrent swap yields the
// old or the new plan, never a mix) plus the full epoch history.
type SessionPlanResponse struct {
	RequestID string          `json:"request_id"`
	SessionID string          `json:"session_id"`
	Plan      tenancy.Plan    `json:"plan"`
	Epochs    []tenancy.Epoch `json:"epochs"`
}

// remapRequest is the persisted body of a background remap job.
type remapRequest struct {
	SessionID string        `json:"session_id"`
	Reason    string        `json:"reason"`
	Drift     tenancy.Drift `json:"drift"`
}

// groupKeyFor derives the tenant-group key: sessions resolving to the
// same machine (geometry, LLC organization and physical placement)
// share a mesh and must be co-placed together.
func groupKeyFor(res Resolved) string {
	return fmt.Sprintf("%s|%s|%s|%v|%v", res.Mesh, res.Regions, res.LLC, res.MCs, res.Banks)
}

// computeEstimateAffs is computeEstimate plus the affinity extraction
// the co-placement scores partitions against (the estimator guarantees
// FromAffinities over the same vectors matches FromResult).
func computeEstimateAffs(req *MapRequest) (*EstimateResult, [][]affinity.SetAffinity, error) {
	cfg, opts, res, err := req.compileBound()
	if err != nil {
		return nil, nil, err
	}
	est := estimate.New(estimate.Config{Cfg: cfg, Mapper: opts.Mapper})
	affs := est.Affinities(res)
	return &EstimateResult{
		Tier:     estimate.TierEstimate,
		Plan:     planFromResult(res),
		Estimate: est.FromAffinities(res, affs),
	}, affs, nil
}

// sessionLabel is the session's /metrics label value.
func sessionLabel(sess *tenancy.Session) string {
	if sess.Name != "" {
		return sess.Name
	}
	return sess.ID
}

// floatVal is an atomically updated float64 behind a GaugeFunc — the
// registry's Gauge is integer-valued, and drift/interference are not.
type floatVal struct{ bits atomic.Uint64 }

func (f *floatVal) Set(v float64)  { f.bits.Store(math.Float64bits(v)) }
func (f *floatVal) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// sessionGauge returns the float cell backing the (name, session)
// gauge, registering the GaugeFunc on first use.
func (s *Server) sessionGauge(name, help, session string) *floatVal {
	key := name + "|" + session
	if v, ok := s.sessionGauges.Load(key); ok {
		return v.(*floatVal)
	}
	fv := &floatVal{}
	actual, loaded := s.sessionGauges.LoadOrStore(key, fv)
	if !loaded {
		s.reg.GaugeFunc(name, help, metrics.Labels{"session": session}, fv.Value)
	}
	return actual.(*floatVal)
}

// observeEpoch folds one applied epoch into the per-tenant SLO
// families. Label cardinality is bounded by Config.MaxTenants.
func (s *Server) observeEpoch(sess *tenancy.Session, ep tenancy.Epoch) {
	session := sessionLabel(sess)
	lbl := metrics.Labels{"session": session}
	s.reg.Counter("locmapd_session_epochs_total",
		"Plan epochs applied per session, registration included.", lbl).Inc()
	s.sessionGauge("locmapd_session_drift_at_trigger",
		"Windowed α drift measured when the session's last remap triggered.", session).
		Set(ep.DriftAlpha)
	s.reg.Histogram("locmapd_session_remap_latency_seconds",
		"End-to-end remap latency (trigger to atomic plan swap) per session.",
		metrics.ExpBuckets(0.001, 2, 14), lbl).Observe(ep.RemapMs / 1000)
	s.sessionGauge("locmapd_session_interference_score",
		"Cross-tenant interference score of the session's current co-placement.", session).
		Set(ep.Interference)
}

// sessionInfo flattens a session snapshot into the wire shape.
func (s *Server) sessionInfo(sess *tenancy.Session) SessionInfo {
	info := SessionInfo{
		SessionID: sess.ID,
		Name:      sess.Name,
		GroupKey:  sess.GroupKey,
		CreatedAt: sess.CreatedAt,
		Tenants:   len(s.tenants.Group(sess.GroupKey)),
		Drift:     sess.Drift(),
	}
	if p := sess.Plan(); p != nil {
		info.Epoch = p.Epoch
		info.Tier = p.Tier
		info.Cores = p.Cores
		info.Interference = p.Interference
	}
	return info
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: %v", err))
		return
	}
	mr := &MapRequest{CommonRequest: req.CommonRequest}
	body, err := json.Marshal(mr)
	if err != nil {
		s.writeError(w, r, errf(http.StatusInternalServerError, ErrInternal, "%v", err))
		return
	}
	// The initial plan is the analytical estimate, computed on the
	// bounded worker pool like any synchronous request; verification
	// happens on the session's first remap epoch instead of eagerly,
	// since the drift window is what decides whether it matters.
	var er *EstimateResult
	var affs [][]affinity.SetAffinity
	payload, apiErr := s.runJob(r.Context(), "", estimate.TierEstimate, func() ([]byte, error) {
		e, a, err := computeEstimateAffs(mr)
		if err != nil {
			return nil, err
		}
		er, affs = e, a
		return json.Marshal(e)
	})
	if apiErr != nil {
		s.writeError(w, r, apiErr)
		return
	}
	plan := tenancy.Plan{
		Tier:            er.Tier,
		PredictedAlpha:  er.Estimate.Alpha,
		PredictedCycles: er.Estimate.PredictedCycles,
		Payload:         payload,
	}
	sess, err := s.tenants.Register(req.Name, groupKeyFor(mr.resolved()), body, affs, plan)
	if errors.Is(err, tenancy.ErrTooManySessions) {
		s.writeError(w, r, errf(http.StatusServiceUnavailable, ErrTooManySessions, "%v", err))
		return
	}
	if err != nil {
		s.writeError(w, r, errf(http.StatusInternalServerError, ErrInternal, "%v", err))
		return
	}
	s.observeEpoch(sess, sess.Epochs()[0])
	// A new co-tenant changes the group's shape: re-partition the mesh
	// across all members (the new session's epoch-0 plan gets its core
	// partition from this rebalance).
	s.rebalanceGroup(sess.GroupKey)
	s.writeJSON(w, http.StatusCreated, SessionResponse{
		RequestID:   RequestIDFromContext(r.Context()),
		SessionInfo: s.sessionInfo(sess),
	})
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	resp := SessionListResponse{
		RequestID: RequestIDFromContext(r.Context()),
		Sessions:  []SessionInfo{},
	}
	for _, sess := range s.tenants.List() {
		resp.Sessions = append(resp.Sessions, s.sessionInfo(sess))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// lookupSession resolves the {id} path value, writing the enveloped
// 404 on a miss.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request) (*tenancy.Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.tenants.Get(id)
	if !ok {
		s.writeError(w, r, errf(http.StatusNotFound, ErrSessionNotFound,
			"no such session: %s", id))
		return nil, false
	}
	return sess, true
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	s.writeJSON(w, http.StatusOK, SessionResponse{
		RequestID:   RequestIDFromContext(r.Context()),
		SessionInfo: s.sessionInfo(sess),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.tenants.Delete(id)
	if !ok {
		s.writeError(w, r, errf(http.StatusNotFound, ErrSessionNotFound,
			"no such session: %s", id))
		return
	}
	info := SessionInfo{
		SessionID: sess.ID,
		Name:      sess.Name,
		GroupKey:  sess.GroupKey,
		CreatedAt: sess.CreatedAt,
	}
	if p := sess.Plan(); p != nil {
		info.Epoch = p.Epoch
		info.Tier = p.Tier
	}
	// The survivors spread back over the freed cores.
	s.rebalanceGroup(sess.GroupKey)
	s.writeJSON(w, http.StatusOK, SessionResponse{
		RequestID:   RequestIDFromContext(r.Context()),
		SessionInfo: info,
		Deleted:     true,
	})
}

func (s *Server) handleSessionTelemetry(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	var t tenancy.Telemetry
	if !s.decode(w, r, &t) {
		return
	}
	if t.Alpha < 0 || t.Alpha > 1 {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: alpha must be in [0,1], got %g", t.Alpha))
		return
	}
	if t.L1HitFraction < 0 || t.L1HitFraction > 1 {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: l1_hit_fraction must be in [0,1], got %g", t.L1HitFraction))
		return
	}
	if t.Cycles < 0 {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: cycles must be >= 0, got %d", t.Cycles))
		return
	}
	drift, trigger := s.tenants.Ingest(sess, t)
	resp := TelemetryResponse{
		RequestID: RequestIDFromContext(r.Context()),
		SessionID: sess.ID,
		Drift:     drift,
	}
	if trigger {
		if id, ok := s.submitRemap(RequestIDFromContext(r.Context()), sess, drift); ok {
			resp.RemapTriggered = true
			resp.RemapJobID = id
		}
	}
	if p := sess.Plan(); p != nil {
		resp.Epoch = p.Epoch
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionPlan(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r)
	if !ok {
		return
	}
	resp := SessionPlanResponse{
		RequestID: RequestIDFromContext(r.Context()),
		SessionID: sess.ID,
		Epochs:    sess.Epochs(),
	}
	if p := sess.Plan(); p != nil {
		resp.Plan = *p
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// submitRemap enqueues the background remap for a session whose
// in-flight latch the caller just took (Ingest/ShouldRemap returned
// true). A full background queue sheds the job and releases the latch;
// the drift window is kept, so the periodic sweep retries.
func (s *Server) submitRemap(requestID string, sess *tenancy.Session, drift tenancy.Drift) (string, bool) {
	body, err := json.Marshal(remapRequest{
		SessionID: sess.ID,
		Reason:    tenancy.ReasonDrift,
		Drift:     drift,
	})
	if err != nil {
		s.tenants.AbortRemap(sess)
		return "", false
	}
	epoch := 0
	if p := sess.Plan(); p != nil {
		epoch = p.Epoch
	}
	// The fingerprint is unique per attempt: the in-flight latch is the
	// single-flight guard, and a retried (previously failed) attempt
	// must not dedup against the failed job.
	j, err := s.queue.SubmitBackground(requestID, jobqueue.Spec{
		Kind:        "remap",
		Fingerprint: fmt.Sprintf("remap:%s:%d:%d", sess.ID, epoch+1, time.Now().UnixNano()),
		Request:     body,
	})
	if err != nil {
		s.remapDropped.Inc()
		s.tenants.AbortRemap(sess)
		return "", false
	}
	return j.ID, true
}

// runRemap executes one background remap epoch: re-estimate the
// workload, verify by simulation (recalibrating the drift baseline to
// the simulated ground truth), re-run the group co-placement, and
// swap the session's plan atomically. Progress phases are reported via
// SetProgress; the final report survives in the terminal job record's
// progress_summary.
func (s *Server) runRemap(jobID string, rr *remapRequest) ([]byte, error) {
	sess, ok := s.tenants.Get(rr.SessionID)
	if !ok {
		return nil, fmt.Errorf("session %s is no longer registered", rr.SessionID)
	}
	swapped := false
	defer func() {
		if !swapped {
			// Keep the drift window: the deviation that triggered is
			// still real, and the next sweep retries.
			s.tenants.AbortRemap(sess)
		}
	}()
	progress := func(phase string, extra map[string]any) {
		p := map[string]any{"phase": phase, "session_id": sess.ID, "reason": rr.Reason}
		for k, v := range extra {
			p[k] = v
		}
		if b, err := json.Marshal(p); err == nil {
			s.queue.SetProgress(jobID, b)
		}
	}
	progress("estimate", nil)
	var mr MapRequest
	if err := json.Unmarshal(sess.Request, &mr); err != nil {
		return nil, fmt.Errorf("decode session request: %w", err)
	}
	er, affs, err := computeEstimateAffs(&mr)
	if err != nil {
		return nil, err
	}
	progress("verify", nil)
	if err := s.verifyEstimate(er, mr.CommonRequest); err != nil {
		return nil, err
	}
	sess.SetAffinities(affs)

	// The new drift baseline is the *simulated* α and cycle count:
	// future telemetry is compared against ground truth, not against
	// the analytical estimate that just drifted.
	v := er.Verification
	plan := tenancy.Plan{
		Tier:            er.Tier,
		PredictedAlpha:  v.SimAlpha,
		PredictedCycles: v.SimCycles,
	}
	progress("coplace", nil)
	placed := s.groupPlacement(sess, &mr, &plan)
	payload, err := json.Marshal(er)
	if err != nil {
		return nil, err
	}
	plan.Payload = payload
	ep := s.tenants.CompleteRemap(sess, rr.Reason, rr.Drift, plan)
	swapped = true
	s.observeEpoch(sess, ep)
	// Co-tenants' partitions changed with this remap's co-placement:
	// give each a rebalance epoch carrying its new cores.
	for _, tp := range placed {
		s.applyRebalance(tp.sess, tp.cores, tp.interference)
	}
	progress("done", map[string]any{
		"epoch":         ep.Seq,
		"tier":          er.Tier,
		"alpha_drift":   v.AlphaDrift,
		"latency_drift": v.LatencyDrift,
		"interference":  plan.Interference,
		"remap_ms":      ep.RemapMs,
	})
	return json.Marshal(struct {
		SessionID string        `json:"session_id"`
		Epoch     tenancy.Epoch `json:"epoch"`
	}{sess.ID, ep})
}

// placedTenant is one co-tenant's new partition from a group
// co-placement run.
type placedTenant struct {
	sess         *tenancy.Session
	cores        []int
	interference float64
}

// groupPlacement runs the interference-aware co-placement for the
// session's tenant group, fills plan.Cores/Interference for the
// remapping session, and returns the co-tenants' new partitions for
// the caller to apply. Sole tenants keep the whole mesh.
func (s *Server) groupPlacement(sess *tenancy.Session, mr *MapRequest, plan *tenancy.Plan) []placedTenant {
	group := s.tenants.Group(sess.GroupKey)
	if len(group) < 2 {
		return nil
	}
	cfg, _, err := mr.options()
	if err != nil {
		return nil
	}
	tenants := make([]tenancy.Tenant, 0, len(group))
	for _, g := range group {
		tenants = append(tenants, tenancy.Tenant{ID: g.ID, Affs: g.Affinities()})
	}
	pl, err := tenancy.CoPlace(tenancy.CoPlaceConfig{Mesh: cfg.Mesh, Seed: 1}, tenants)
	if err != nil {
		s.log.Warn("co-placement failed", "group", sess.GroupKey, "err", err)
		return nil
	}
	var others []placedTenant
	for i, g := range group {
		cores := make([]int, len(pl.Tenants[i].Cores))
		for k, c := range pl.Tenants[i].Cores {
			cores[k] = int(c)
		}
		if g.ID == sess.ID {
			plan.Cores = cores
			plan.Interference = pl.Score.Interference
			continue
		}
		others = append(others, placedTenant{g, cores, pl.Score.Interference})
	}
	return others
}

// applyRebalance installs new cores on a co-tenant as a rebalance
// epoch, keeping its payload and drift baseline. A tenant with a remap
// already in flight is skipped — its own completion re-places the
// group anyway.
func (s *Server) applyRebalance(sess *tenancy.Session, cores []int, interference float64) {
	if !s.tenants.BeginRebalance(sess) {
		return
	}
	cur := sess.Plan()
	if cur == nil {
		s.tenants.AbortRemap(sess)
		return
	}
	p := *cur
	p.Cores = cores
	p.Interference = interference
	ep := s.tenants.CompleteRemap(sess, tenancy.ReasonRebalance, tenancy.Drift{}, p)
	s.observeEpoch(sess, ep)
}

// rebalanceGroup re-partitions a whole tenant group after its shape
// changed (a member registered or left). Sole survivors get the whole
// mesh back.
func (s *Server) rebalanceGroup(groupKey string) {
	group := s.tenants.Group(groupKey)
	if len(group) == 0 {
		return
	}
	if len(group) == 1 {
		sole := group[0]
		if p := sole.Plan(); p != nil && (len(p.Cores) > 0 || p.Interference != 0) {
			s.applyRebalance(sole, nil, 0)
		}
		return
	}
	var mr MapRequest
	if err := json.Unmarshal(group[0].Request, &mr); err != nil {
		return
	}
	cfg, _, err := mr.options()
	if err != nil {
		return
	}
	tenants := make([]tenancy.Tenant, 0, len(group))
	for _, g := range group {
		tenants = append(tenants, tenancy.Tenant{ID: g.ID, Affs: g.Affinities()})
	}
	pl, err := tenancy.CoPlace(tenancy.CoPlaceConfig{Mesh: cfg.Mesh, Seed: 1}, tenants)
	if err != nil {
		s.log.Warn("co-placement failed", "group", groupKey, "err", err)
		return
	}
	for i, g := range group {
		cores := make([]int, len(pl.Tenants[i].Cores))
		for k, c := range pl.Tenants[i].Cores {
			cores[k] = int(c)
		}
		s.applyRebalance(g, cores, pl.Score.Interference)
	}
}

// sweep is the epoch controller's periodic pass: re-evaluate every
// session's trigger condition so a suppressed remap (in-flight latch,
// full queue) fires within one Config.RemapInterval of becoming
// possible.
func (s *Server) sweep() {
	for _, sess := range s.tenants.List() {
		if drift, ok := s.tenants.ShouldRemap(sess); ok {
			s.submitRemap("", sess, drift)
		}
	}
}

// runSweeper drives sweep on the remap interval until Close.
func (s *Server) runSweeper() {
	defer close(s.sweepDone)
	t := time.NewTicker(s.cfg.RemapInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sweep()
		case <-s.sweepStop:
			return
		}
	}
}
