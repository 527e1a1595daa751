package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"locmap/internal/jobqueue"
)

// The batch surface: the synchronous /v1/map and /v1/simulate
// pipeline behind a durable asynchronous queue (internal/jobqueue).
// A client submits N specs in one POST /v1/batch, gets ids back
// immediately, and polls GET /v1/batch/{id} (aggregate) or
// GET /v1/jobs/{id} (single job) while the batch worker pool drains
// the queue through the same runJob/plancache path the synchronous
// endpoints use — so batch results warm the plan cache for
// synchronous traffic, and already-cached plans complete batch jobs
// without re-executing.

// BatchJobSpec is one job of a batch submission.
type BatchJobSpec struct {
	// Kind selects the pipeline: "map" or "simulate".
	Kind string `json:"kind"`

	// Request is the endpoint's usual request body (a MapRequest for
	// "map", a SimulateRequest for "simulate").
	Request json.RawMessage `json:"request"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Jobs []BatchJobSpec `json:"jobs"`
}

// BatchJobAck is the per-job acknowledgement in a submit response.
type BatchJobAck struct {
	JobID       string         `json:"job_id"`
	Kind        string         `json:"kind"`
	Fingerprint string         `json:"fingerprint"`
	State       jobqueue.State `json:"state"`
}

// BatchSubmitResponse is the body of a successful (202) POST /v1/batch.
type BatchSubmitResponse struct {
	RequestID   string        `json:"request_id"`
	BatchID     string        `json:"batch_id"`
	SubmittedAt time.Time     `json:"submitted_at"`
	Jobs        []BatchJobAck `json:"jobs"`
}

// JobStatus is the wire view of one batch job.
type JobStatus struct {
	JobID       string         `json:"job_id"`
	BatchID     string         `json:"batch_id"`
	Kind        string         `json:"kind,omitempty"`
	State       jobqueue.State `json:"state"`
	Fingerprint string         `json:"fingerprint,omitempty"`

	// SubmitRequestID is the correlation id of the request that
	// submitted the job — the id on the submission's access-log line,
	// echoed back so a job is traceable to its origin.
	SubmitRequestID string `json:"submit_request_id,omitempty"`

	// Cached reports the result came from the plan cache or a
	// same-fingerprint job instead of a fresh execution.
	Cached bool `json:"cached,omitempty"`

	// Error holds the failure message for failed jobs.
	Error string `json:"error,omitempty"`

	// Progress is the executor's latest progress report (optimize jobs:
	// phase, candidates evaluated, best-so-far cost; remap jobs: phase
	// and session). Present only while the job is running.
	Progress json.RawMessage `json:"progress,omitempty"`

	// ProgressSummary is the executor's final progress report, frozen
	// when the job reached a terminal state — a finished optimize or
	// remap job still explains what happened. Survives restarts with
	// the job record.
	ProgressSummary json.RawMessage `json:"progress_summary,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Result is the serialized Plan ("map") or SimResult ("simulate"),
	// present only on done jobs.
	Result json.RawMessage `json:"result,omitempty"`
}

// JobResponse is the body of GET /v1/jobs/{id} and DELETE
// /v1/jobs/{id}: the job's status plus this request's correlation id.
type JobResponse struct {
	RequestID string `json:"request_id"`
	JobStatus
}

// BatchStatusResponse is the body of GET /v1/batch/{id}.
type BatchStatusResponse struct {
	RequestID string `json:"request_id"`
	BatchID   string `json:"batch_id"`

	// SubmitRequestID is the correlation id of the submitting request.
	SubmitRequestID string    `json:"submit_request_id,omitempty"`
	SubmittedAt     time.Time `json:"submitted_at"`

	// Done reports every job reached a terminal state.
	Done bool `json:"done"`

	// Counts is the number of jobs per lifecycle state (zero counts
	// included, so the key set is stable).
	Counts map[jobqueue.State]int `json:"counts"`

	Jobs []JobStatus `json:"jobs"`
}

// jobStatusFrom flattens a queue job snapshot into the wire shape.
func jobStatusFrom(j *jobqueue.Job) JobStatus {
	st := JobStatus{
		JobID:           j.ID,
		BatchID:         j.BatchID,
		Kind:            j.Kind,
		State:           j.State,
		Fingerprint:     j.Fingerprint,
		SubmitRequestID: j.SubmitRequestID,
		Cached:          j.Cached,
		Error:           j.Error,
		Progress:        j.Progress,
		ProgressSummary: j.ProgressSummary,
		SubmittedAt:     j.SubmittedAt,
		Result:          j.Result,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		st.StartedAt = &t
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		st.FinishedAt = &t
	}
	return st
}

// batchSpecs validates a submission and derives each job's canonical
// fingerprint (the same plan-cache key the synchronous endpoints
// use). The whole batch is rejected on the first invalid job, so an
// accepted batch never contains work that cannot run.
func (s *Server) batchSpecs(req *BatchRequest) ([]jobqueue.Spec, *apiError) {
	if len(req.Jobs) == 0 {
		return nil, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: batch has no jobs")
	}
	if len(req.Jobs) > s.cfg.MaxBatchJobs {
		return nil, errf(http.StatusBadRequest, ErrBatchTooLarge,
			"batch has %d jobs, limit is %d", len(req.Jobs), s.cfg.MaxBatchJobs)
	}
	specs := make([]jobqueue.Spec, 0, len(req.Jobs))
	for i, bj := range req.Jobs {
		var ar apiRequest
		switch bj.Kind {
		case "map":
			ar = &MapRequest{}
		case "simulate":
			ar = &SimulateRequest{}
		default:
			return nil, errf(http.StatusBadRequest, ErrInvalidRequest,
				"job %d: kind must be %q or %q, got %q", i, "map", "simulate", bj.Kind)
		}
		if len(bj.Request) == 0 {
			return nil, errf(http.StatusBadRequest, ErrInvalidRequest,
				"job %d: request is required", i)
		}
		if err := decodeStrict(bj.Request, ar); err != nil {
			return nil, errf(http.StatusBadRequest, ErrInvalidBody,
				"job %d: bad request body: %v", i, err)
		}
		if err := ar.Validate(); err != nil {
			return nil, errf(http.StatusBadRequest, ErrInvalidRequest,
				"job %d: invalid request: %v", i, err)
		}
		spec, err := ar.spec(bj.Kind)
		if err != nil {
			return nil, errf(http.StatusBadRequest, ErrInvalidRequest,
				"job %d: invalid request: %v", i, err)
		}
		key, err := spec.Fingerprint()
		if err != nil {
			return nil, errf(http.StatusBadRequest, ErrInvalidSource,
				"job %d: invalid source: %v", i, err)
		}
		specs = append(specs, jobqueue.Spec{
			Kind:        bj.Kind,
			Fingerprint: key,
			Request:     bj.Request,
		})
	}
	return specs, nil
}

// decodeStrict unmarshals JSON rejecting unknown fields, mirroring
// Server.decode for nested batch job bodies.
func decodeStrict(raw json.RawMessage, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	specs, apiErr := s.batchSpecs(&req)
	if apiErr != nil {
		s.writeError(w, r, apiErr)
		return
	}
	batch, jobs, err := s.queue.SubmitBatch(RequestIDFromContext(r.Context()), specs)
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
	resp := BatchSubmitResponse{
		RequestID:   RequestIDFromContext(r.Context()),
		BatchID:     batch.ID,
		SubmittedAt: batch.SubmittedAt,
		Jobs:        make([]BatchJobAck, 0, len(jobs)),
	}
	for i := range jobs {
		resp.Jobs = append(resp.Jobs, BatchJobAck{
			JobID:       jobs[i].ID,
			Kind:        jobs[i].Kind,
			Fingerprint: jobs[i].Fingerprint,
			State:       jobs[i].State,
		})
	}
	s.writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleBatchStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	batch, jobs, ok := s.queue.Batch(id)
	if !ok {
		s.writeError(w, r, errf(http.StatusNotFound, ErrBatchNotFound,
			"no such batch: %s", id))
		return
	}
	resp := BatchStatusResponse{
		RequestID:       RequestIDFromContext(r.Context()),
		BatchID:         batch.ID,
		SubmitRequestID: batch.SubmitRequestID,
		SubmittedAt:     batch.SubmittedAt,
		Done:            true,
		Counts:          make(map[jobqueue.State]int, len(jobqueue.States)),
		Jobs:            make([]JobStatus, 0, len(jobs)),
	}
	for _, st := range jobqueue.States {
		resp.Counts[st] = 0
	}
	for i := range jobs {
		j := &jobs[i]
		resp.Counts[j.State]++
		if !j.State.Terminal() {
			resp.Done = false
		}
		resp.Jobs = append(resp.Jobs, jobStatusFrom(j))
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.queue.Job(id)
	if !ok {
		s.writeError(w, r, errf(http.StatusNotFound, ErrJobNotFound,
			"no such job: %s", id))
		return
	}
	s.writeJSON(w, http.StatusOK, JobResponse{
		RequestID: RequestIDFromContext(r.Context()),
		JobStatus: jobStatusFrom(&j),
	})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.queue.Cancel(id)
	switch {
	case errors.Is(err, jobqueue.ErrNotFound):
		s.writeError(w, r, errf(http.StatusNotFound, ErrJobNotFound,
			"no such job: %s", id))
		return
	case errors.Is(err, jobqueue.ErrNotCancellable):
		s.writeError(w, r, errf(http.StatusConflict, ErrJobNotCancellable,
			"job %s: %v", id, err))
		return
	case err != nil:
		s.writeError(w, r, errf(http.StatusInternalServerError, ErrInternal, "%v", err))
		return
	}
	s.writeJSON(w, http.StatusOK, JobResponse{
		RequestID: RequestIDFromContext(r.Context()),
		JobStatus: jobStatusFrom(&j),
	})
}

// handleReadyz is the readiness probe: 503 (with the error envelope)
// when the synchronous worker pool or the user-facing batch queue is
// saturated past the configured watermark, 200 otherwise. Background
// verification depth is reported separately and never gates
// readiness: verification is best-effort shed load, and a backlog of
// it must not pull a replica out of rotation for user traffic.
// Distinct from /healthz, which only reports liveness.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	syncUtil := float64(s.inflight.Load()) / float64(s.cfg.Workers)
	queueUtil := float64(s.queue.Depth()) / float64(s.queue.QueueLimit())
	bgUtil := float64(s.queue.BackgroundDepth()) / float64(s.queue.BackgroundLimit())
	wm := s.cfg.ReadyWatermark
	if syncUtil >= wm || queueUtil >= wm {
		s.writeError(w, r, errf(http.StatusServiceUnavailable, ErrNotReady,
			"not ready: sync pool at %.0f%% of %d workers, batch queue at %.0f%% of %d slots (watermark %.0f%%)",
			100*syncUtil, s.cfg.Workers, 100*queueUtil, s.queue.QueueLimit(), 100*wm))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":                 "ready",
		"sync_utilization":       syncUtil,
		"queue_utilization":      queueUtil,
		"background_utilization": bgUtil,
	})
}

// execBatchJob is the queue's executor: the plan cache answers
// first (read-through — synchronous traffic warms batch work), and
// misses run on the shared bounded worker pool via runJob, which
// caches the payload on success (batch work warms synchronous
// traffic). The jobqueue marks cache-served results Cached.
// Background "verify" jobs bypass both cache directions: their
// fingerprint namespace is never cached, and the verdict reaches the
// cache through Upgrade inside runVerify instead.
func (s *Server) execBatchJob(ctx context.Context, j *jobqueue.Job) ([]byte, bool, error) {
	if j.Kind == "optimize" {
		// Optimize jobs wait for child simulations that may run on this
		// very goroutine (jobqueue.Await), and each child takes a runJob
		// slot, so the search must not hold one itself (that would
		// deadlock a Workers=1 pool). Optimize results are never
		// plan-cached; the jobqueue's retained result is their memo.
		var req OptimizeRequest
		if err := json.Unmarshal(j.Request, &req); err != nil {
			return nil, false, fmt.Errorf("decode persisted optimize request: %w", err)
		}
		payload, err := s.runOptimize(ctx, j, &req)
		return payload, false, err
	}
	cacheKey := j.Fingerprint
	if j.Kind == "verify" || j.Kind == "remap" {
		// Verification and remap jobs manage their own cache/session
		// state; their fingerprint namespaces are never plan-cached.
		cacheKey = ""
	} else if payload, ok := s.cache.Get(j.Fingerprint); ok {
		return payload, true, nil
	}
	job, err := s.batchJobFunc(j)
	if err != nil {
		return nil, false, err
	}
	payload, apiErr := s.runJob(ctx, cacheKey, tierForKind(j.Kind), job)
	if apiErr != nil {
		return nil, false, fmt.Errorf("%s: %s", apiErr.code, apiErr.msg)
	}
	return payload, false, nil
}

// batchJobFunc rebuilds the pipeline closure for a (possibly
// journal-replayed) job record. The bytes were validated at
// submission; a record that no longer decodes is a failed job, not a
// panic.
func (s *Server) batchJobFunc(j *jobqueue.Job) (func() ([]byte, error), error) {
	switch j.Kind {
	case "map":
		var req MapRequest
		if err := json.Unmarshal(j.Request, &req); err != nil {
			return nil, fmt.Errorf("decode persisted map request: %w", err)
		}
		return func() ([]byte, error) {
			plan, err := compilePlan(&req)
			if err != nil {
				return nil, err
			}
			return json.Marshal(plan)
		}, nil
	case "simulate":
		var req SimulateRequest
		if err := json.Unmarshal(j.Request, &req); err != nil {
			return nil, fmt.Errorf("decode persisted simulate request: %w", err)
		}
		return func() ([]byte, error) {
			res, err := simulate(&req)
			if err != nil {
				return nil, err
			}
			s.observeSim(res)
			return json.Marshal(res)
		}, nil
	case "verify":
		var vr verifyRequest
		if err := json.Unmarshal(j.Request, &vr); err != nil {
			return nil, fmt.Errorf("decode verify request: %w", err)
		}
		return func() ([]byte, error) { return s.runVerify(&vr) }, nil
	case "remap":
		var rr remapRequest
		if err := json.Unmarshal(j.Request, &rr); err != nil {
			return nil, fmt.Errorf("decode remap request: %w", err)
		}
		jobID := j.ID
		return func() ([]byte, error) { return s.runRemap(jobID, &rr) }, nil
	}
	return nil, fmt.Errorf("unknown persisted job kind %q", j.Kind)
}
