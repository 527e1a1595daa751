// Package server implements locmapd's HTTP/JSON API: the paper's
// location-aware mapping pipeline exposed as a long-running service.
//
// Endpoints (see API.md for the full contract):
//
//	POST   /v1/map        compile a loop-nest program, return the schedule
//	POST   /v1/estimate   answer from the analytical fast tier, verified
//	                      by a background simulation
//	POST   /v1/simulate   additionally execute it on the simulator and
//	                      report the improvement over the default mapping
//	POST   /v1/batch      submit an async batch of map/simulate jobs (202)
//	POST   /v1/optimize   search chip placements for a workload (202 + job)
//	GET    /v1/batch/{id} batch progress: per-state counts + member jobs
//	GET    /v1/jobs       list jobs, newest first (limit/cursor/state)
//	GET    /v1/jobs/{id}  one job's state, progress, timestamps and result
//	DELETE /v1/jobs/{id}  cancel a still-queued job
//	POST   /v1/sessions   register a long-running workload session (201)
//	GET    /v1/sessions   list sessions with drift and epoch state
//	GET    /v1/sessions/{id}            one session's state
//	DELETE /v1/sessions/{id}            unregister (rebalances the group)
//	POST   /v1/sessions/{id}/telemetry  push an observed run's telemetry
//	GET    /v1/sessions/{id}/plan       current plan + epoch history
//	GET    /v1/stats      service counters (requests, cache, latency)
//	GET    /healthz       liveness probe (also answers HEAD)
//	GET    /readyz        readiness probe: 503 past the utilization
//	                      watermark (also answers HEAD)
//	GET|PUT|DELETE /v1/cluster/plan/{fingerprint}
//	                      peer plan-cache traffic in cluster mode
//
// Batch jobs run asynchronously on internal/jobqueue — a bounded
// worker pool behind a durable append-only journal (Config.JournalDir;
// empty = in-memory only). Batch and synchronous traffic share the
// plan cache in both directions, and journal replay re-warms it on
// restart. An optimize search is one more batch job: it submits its
// verification simulations as child jobs and waits for them with
// jobqueue.Queue.Await.
//
// Routing uses Go 1.22 method-qualified mux patterns; a wrong method
// gets a 405 with an Allow header and an unknown path a 404, both in
// the same JSON error envelope as every other failure:
// {"error":{"code":...,"message":...,"request_id":...}} with a stable
// machine-readable code.
//
// Every request carries a correlation id (echoed or generated
// X-Request-Id) through context into the worker goroutines, appears
// in exactly one structured access-log line (log/slog), and is
// counted in both the /v1/stats snapshot and the Prometheus registry
// behind MetricsHandler — per-endpoint request counters and latency
// histograms, an in-flight gauge, queue-reject and job-timeout
// counters, per-shard plan-cache counters, and post-run simulator
// telemetry histograms (cycles, LLC hit fraction, per-leg NoC
// latency).
//
// Mapping and simulation jobs run on a bounded worker pool; finished
// plans are memoized in internal/plancache keyed by a canonical
// fingerprint of the request, so a repeated identical request is
// answered from memory without re-running the pipeline.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locmap/internal/compiler"
	"locmap/internal/core"
	"locmap/internal/inspector"
	"locmap/internal/jobqueue"
	"locmap/internal/metrics"
	"locmap/internal/plancache"
	"locmap/internal/sim"
	"locmap/internal/stats"
	"locmap/internal/tenancy"
)

// Config parameterizes the service.
type Config struct {
	// Workers bounds the number of concurrently executing mapping or
	// simulation jobs (default GOMAXPROCS). Requests beyond the bound
	// queue until a worker frees up or their timeout expires.
	Workers int

	// CacheCapacity bounds the plan cache entry count (default 1024).
	CacheCapacity int

	// RequestTimeout bounds one request's total time in the handler,
	// queueing included (default 30s).
	RequestTimeout time.Duration

	// MaxBodyBytes bounds a request body (default 1MiB).
	MaxBodyBytes int64

	// Logger receives one structured access-log line per request
	// (default slog.Default()).
	Logger *slog.Logger

	// Registry receives the service's metric families (default: a
	// fresh registry, retrievable via Server.Registry).
	Registry *metrics.Registry

	// JournalDir is the batch-job journal directory. Empty runs the
	// batch queue without durability: queued work is lost on exit.
	JournalDir string

	// BatchWorkers bounds concurrently executing batch jobs, optimize
	// searches included (default max(1, Workers/2)). Batch executions
	// additionally compete with synchronous requests for the
	// Workers-bounded compute pool, so total concurrent pipeline work
	// never exceeds Workers.
	BatchWorkers int

	// ResultTTL bounds how long a finished batch job's result is
	// retained for polling (default 15m).
	ResultTTL time.Duration

	// MaxBatchJobs bounds the jobs in one POST /v1/batch submission
	// (default 64; beyond it the submit is rejected batch_too_large).
	MaxBatchJobs int

	// QueueLimit bounds the total queued batch jobs, optimize jobs
	// included (default 1024; beyond it submissions are rejected
	// queue_full).
	QueueLimit int

	// ReadyWatermark is the /readyz saturation threshold in [0,1]:
	// the probe reports 503 when sync-pool occupancy or batch-queue
	// fill reaches this fraction (default 0.9). Background
	// verification jobs are reported but never gate readiness.
	ReadyWatermark float64

	// FastTier routes /v1/map through the analytical estimator
	// (internal/estimate): a cold request is answered in microseconds
	// with tier "estimate", and a background verification job
	// upgrades the cached plan to "verified" or "refined" once the
	// full simulation has checked it. /v1/estimate always uses the
	// fast tier regardless of this flag.
	FastTier bool

	// AlphaTolerance is the verification bound on |predicted α −
	// simulated α| (default 0.1): estimates within it become
	// "verified", outside it "refined".
	AlphaTolerance float64

	// LatencyTolerance is the verification bound on the relative
	// predicted-vs-simulated cycle-count error (default 0.5 — the
	// analytical model is contention-free, so its value is ordering,
	// not absolute cycles).
	LatencyTolerance float64

	// RemapInterval is the epoch controller's sweep period (default
	// 5s): every interval each session's drift trigger is re-evaluated,
	// so a remap suppressed at telemetry-push time (another remap in
	// flight, background queue full) fires within one interval of
	// becoming possible. It is also the minimum spacing between two
	// epochs of one session (the no-flap hysteresis rail).
	RemapInterval time.Duration

	// DriftAlphaTol is the session drift threshold on |windowed mean
	// observed α − predicted α| (default: AlphaTolerance). Windowed
	// drift at or above it triggers a remap epoch.
	DriftAlphaTol float64

	// MaxTenants bounds concurrently registered sessions (default 64;
	// beyond it POST /v1/sessions is rejected too_many_sessions).
	MaxTenants int

	// Peers lists every cluster member's base URL
	// (scheme://host:port), this node's included; all members must be
	// started with the same list. Empty — or naming only this node —
	// runs single-node. See internal/cluster for the routing model.
	Peers []string

	// NodeID is this node's own entry in Peers (required when Peers
	// names other members).
	NodeID string

	// ClusterTimeout bounds each peer cache operation (default 2s).
	// Whole-request forwards use RequestTimeout instead.
	ClusterTimeout time.Duration
}

// Server is the locmapd service state. Create with New; all methods
// are safe for concurrent use.
type Server struct {
	cfg   Config
	cache *plancache.Cache
	queue *jobqueue.Queue
	sem   chan struct{}
	lat   *stats.Recorder
	log   *slog.Logger
	reg   *metrics.Registry
	start time.Time

	requests atomic.Uint64 // all requests, success and failure alike
	errors   atomic.Uint64 // 4xx/5xx responses
	rejects  atomic.Uint64 // requests that timed out waiting for a worker
	timeouts atomic.Uint64 // jobs that started but outlived the timeout
	inflight atomic.Int64  // jobs currently holding a worker slot

	httpInflight  *metrics.Gauge
	rejectsTotal  *metrics.Counter
	timeoutTotal  *metrics.Counter
	simCycles     *metrics.Histogram
	simLLCHit     *metrics.Histogram
	simLegAvg     map[string]*metrics.Histogram
	alphaDrift    *metrics.Histogram
	latencyDrift  *metrics.Histogram
	verifyDropped *metrics.Counter
	remapDropped  *metrics.Counter

	tenants       *tenancy.Manager
	sessionGauges sync.Map // metric name + "|" + session label → *floatVal
	sweepStop     chan struct{}
	sweepDone     chan struct{}
	closeOnce     sync.Once

	cluster           *clusterState // nil on single-node servers
	clusterForwards   *metrics.Counter
	clusterRemoteHits *metrics.Counter
	clusterPeerErr    map[string]*metrics.Counter
}

// New builds a Server, applying defaults for zero config fields. It
// fails only when the batch-job journal in cfg.JournalDir cannot be
// opened or replayed.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 1024
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.New()
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = cfg.Workers / 2
		if cfg.BatchWorkers < 1 {
			cfg.BatchWorkers = 1
		}
	}
	if cfg.ResultTTL <= 0 {
		cfg.ResultTTL = 15 * time.Minute
	}
	if cfg.MaxBatchJobs <= 0 {
		cfg.MaxBatchJobs = 64
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 1024
	}
	if cfg.ReadyWatermark <= 0 || cfg.ReadyWatermark > 1 {
		cfg.ReadyWatermark = 0.9
	}
	if cfg.AlphaTolerance <= 0 {
		cfg.AlphaTolerance = 0.1
	}
	if cfg.LatencyTolerance <= 0 {
		cfg.LatencyTolerance = 0.5
	}
	if cfg.ClusterTimeout <= 0 {
		cfg.ClusterTimeout = 2 * time.Second
	}
	if cfg.RemapInterval <= 0 {
		cfg.RemapInterval = 5 * time.Second
	}
	if cfg.DriftAlphaTol <= 0 {
		cfg.DriftAlphaTol = cfg.AlphaTolerance
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = tenancy.DefaultMaxTenants
	}
	s := &Server{
		cfg:   cfg,
		cache: plancache.New(cfg.CacheCapacity),
		sem:   make(chan struct{}, cfg.Workers),
		lat:   stats.NewRecorder(4096),
		log:   cfg.Logger,
		reg:   cfg.Registry,
		start: time.Now(),
		tenants: tenancy.NewManager(tenancy.Config{
			AlphaTol:    cfg.DriftAlphaTol,
			LatencyTol:  cfg.LatencyTolerance,
			MinEpochGap: cfg.RemapInterval,
			MaxTenants:  cfg.MaxTenants,
		}),
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	s.httpInflight = s.reg.Gauge("locmapd_http_inflight_requests",
		"Requests currently inside a handler.", nil)
	s.rejectsTotal = s.reg.Counter("locmapd_queue_rejects_total",
		"Requests that timed out waiting for a worker slot.", nil)
	s.timeoutTotal = s.reg.Counter("locmapd_job_timeouts_total",
		"Jobs that started but outlived the request timeout.", nil)
	s.simCycles = s.reg.Histogram("locmapd_sim_cycles",
		"Location-aware cycle counts of executed /v1/simulate requests.",
		metrics.ExpBuckets(1e4, 4, 12), nil)
	s.simLLCHit = s.reg.Histogram("locmapd_sim_llc_hit_fraction",
		"LLC hit fraction of executed /v1/simulate requests.",
		metrics.LinearBuckets(0.1, 0.1, 10), nil)
	s.simLegAvg = make(map[string]*metrics.Histogram, len(sim.LegNames))
	for _, leg := range sim.LegNames {
		s.simLegAvg[leg] = s.reg.Histogram("locmapd_sim_leg_avg_cycles",
			"Mean per-leg NoC transit latency of executed /v1/simulate requests.",
			metrics.ExpBuckets(1, 2, 12), metrics.Labels{"leg": leg})
	}
	s.alphaDrift = s.reg.Histogram("locmapd_verify_alpha_drift",
		"Absolute predicted-vs-simulated α error observed by background verification.",
		metrics.LinearBuckets(0.02, 0.02, 15), nil)
	s.latencyDrift = s.reg.Histogram("locmapd_verify_latency_drift",
		"Relative predicted-vs-simulated cycle-count error observed by background verification.",
		metrics.ExpBuckets(0.01, 2, 12), nil)
	s.verifyDropped = s.reg.Counter("locmapd_verify_dropped_total",
		"Background verification jobs dropped because the background queue was full.", nil)
	s.remapDropped = s.reg.Counter("locmapd_remap_dropped_total",
		"Session remap jobs dropped because the background queue was full.", nil)
	s.reg.GaugeFunc("locmapd_sessions_active",
		"Currently registered long-running sessions.", nil,
		func() float64 { return float64(s.tenants.Active()) })
	// Eagerly register every serving tier so the family is complete in
	// the exposition before the first request of each tier.
	for _, tier := range servingTiers {
		s.reg.Counter(tierServedName, tierServedHelp, metrics.Labels{"tier": tier})
	}
	s.registerClusterMetrics()
	s.registerCollectors()
	if err := s.initCluster(); err != nil {
		return nil, err
	}

	// The batch queue executes through execBatchJob (plan-cache
	// read-through, then the shared runJob pool) and, before serving
	// any traffic, warms the cache from the journal-replayed results
	// of the kinds the live path caches.
	replayWarms := s.reg.Counter("locmapd_plancache_replay_warms_total",
		"Plan-cache entries warmed from journal-replayed batch results.", nil)
	queue, err := jobqueue.Open(jobqueue.Config{
		Dir:        cfg.JournalDir,
		Workers:    cfg.BatchWorkers,
		ResultTTL:  cfg.ResultTTL,
		QueueLimit: cfg.QueueLimit,
		Exec:       s.execBatchJob,
		Replayed: func(j *jobqueue.Job) {
			if tier, ok := cachedTier(j.Kind); ok && s.cache.PutTier(j.Fingerprint, j.Result, tier) {
				replayWarms.Inc()
			}
		},
		Registry: s.reg,
		Logger:   cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	s.queue = queue
	go s.runSweeper()
	return s, nil
}

// Queue exposes the batch-job queue (tests and embedding processes).
func (s *Server) Queue() *jobqueue.Queue { return s.queue }

// Close drains the batch subsystem for graceful shutdown: running
// batch jobs get until ctx expires to finish and persist; queued jobs
// stay queued in the journal for the next process. Call after the
// HTTP listener has stopped accepting requests.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		close(s.sweepStop)
	})
	<-s.sweepDone
	return s.queue.Close(ctx)
}

// Registry returns the server's metrics registry, so additional
// components (e.g. an experiments.Runner) can export into the same
// /metrics exposition.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// MetricsHandler serves the Prometheus text-format exposition. It is
// deliberately not part of Handler: like -pprof, the /metrics
// listener is opt-in and never shares the API port (cmd/locmapd's
// -metrics flag).
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", s.reg.Handler())
	return mux
}

// Handler returns the service's HTTP routing table. Method-qualified
// patterns route the happy path; the unqualified fallbacks turn every
// other method into an enveloped 405 with an Allow header, and the
// root fallback turns unknown paths into an enveloped 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/map", s.instrument("map", s.handleMap))
	mux.Handle("/v1/map", s.instrument("map", s.methodNotAllowed("POST")))
	mux.Handle("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	mux.Handle("/v1/simulate", s.instrument("simulate", s.methodNotAllowed("POST")))
	mux.Handle("POST /v1/estimate", s.instrument("estimate", s.handleEstimate))
	mux.Handle("/v1/estimate", s.instrument("estimate", s.methodNotAllowed("POST")))
	mux.Handle("GET /v1/stats", s.instrument("stats", s.handleStats))
	mux.Handle("/v1/stats", s.instrument("stats", s.methodNotAllowed("GET")))
	mux.Handle("POST /v1/batch", s.instrument("batch", s.handleBatchSubmit))
	mux.Handle("/v1/batch", s.instrument("batch", s.methodNotAllowed("POST")))
	mux.Handle("GET /v1/batch/{id}", s.instrument("batch_status", s.handleBatchStatus))
	mux.Handle("/v1/batch/{id}", s.instrument("batch_status", s.methodNotAllowed("GET")))
	mux.Handle("POST /v1/optimize", s.instrument("optimize", s.handleOptimize))
	mux.Handle("/v1/optimize", s.instrument("optimize", s.methodNotAllowed("POST")))
	mux.Handle("POST /v1/sessions", s.instrument("sessions", s.handleSessionCreate))
	mux.Handle("GET /v1/sessions", s.instrument("sessions", s.handleSessionList))
	mux.Handle("/v1/sessions", s.instrument("sessions", s.methodNotAllowed("GET, POST")))
	mux.Handle("GET /v1/sessions/{id}", s.instrument("session", s.handleSessionGet))
	mux.Handle("DELETE /v1/sessions/{id}", s.instrument("session", s.handleSessionDelete))
	mux.Handle("/v1/sessions/{id}", s.instrument("session", s.methodNotAllowed("DELETE, GET")))
	mux.Handle("POST /v1/sessions/{id}/telemetry", s.instrument("session_telemetry", s.handleSessionTelemetry))
	mux.Handle("/v1/sessions/{id}/telemetry", s.instrument("session_telemetry", s.methodNotAllowed("POST")))
	mux.Handle("GET /v1/sessions/{id}/plan", s.instrument("session_plan", s.handleSessionPlan))
	mux.Handle("/v1/sessions/{id}/plan", s.instrument("session_plan", s.methodNotAllowed("GET")))
	mux.Handle("GET /v1/jobs", s.instrument("jobs", s.handleJobList))
	mux.Handle("/v1/jobs", s.instrument("jobs", s.methodNotAllowed("GET")))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("job", s.handleJobStatus))
	mux.Handle("DELETE /v1/jobs/{id}", s.instrument("job", s.handleJobCancel))
	mux.Handle("/v1/jobs/{id}", s.instrument("job", s.methodNotAllowed("DELETE, GET")))
	mux.Handle("GET /v1/cluster/plan/{fingerprint}", s.instrument("cluster_plan", s.handleClusterPlanGet))
	mux.Handle("PUT /v1/cluster/plan/{fingerprint}", s.instrument("cluster_plan", s.handleClusterPlanPut))
	mux.Handle("DELETE /v1/cluster/plan/{fingerprint}", s.instrument("cluster_plan", s.handleClusterPlanDelete))
	mux.Handle("/v1/cluster/plan/{fingerprint}", s.instrument("cluster_plan", s.methodNotAllowed("DELETE, GET, PUT")))
	// GET patterns also match HEAD (Go 1.22 mux), so load balancers
	// probing with HEAD get a 200; the fallbacks advertise that.
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("/healthz", s.instrument("healthz", s.methodNotAllowed("GET, HEAD")))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("/readyz", s.instrument("readyz", s.methodNotAllowed("GET, HEAD")))
	mux.Handle("/", s.instrument("other", s.handleNotFound))
	return mux
}

// MapResponse is the body of a successful /v1/map or /v1/simulate
// response. Plan carries the cached payload verbatim: a repeated
// identical request returns byte-identical Plan contents (the
// envelope fields around it — request id, resolved config — are
// per-request).
type MapResponse struct {
	// RequestID is the request correlation id (also the X-Request-Id
	// response header and the request's log line).
	RequestID string `json:"request_id"`

	// Fingerprint is the canonical plan-cache key for the request.
	Fingerprint string `json:"fingerprint"`

	// Cached reports whether Plan was served from the plan cache.
	Cached bool `json:"cached"`

	// Tier is the confidence tier of Plan: "static" (the legacy
	// compile-only /v1/map), "sim" (a full simulation), or the
	// analytical fast tier's "estimate" / "verified" / "refined"
	// lifecycle (see API.md).
	Tier string `json:"tier,omitempty"`

	// Resolved echoes the effective configuration the request mapped
	// to after defaults were applied.
	Resolved Resolved `json:"resolved"`

	// Plan is the serialized Plan (for /v1/map) or SimResult (for
	// /v1/simulate).
	Plan json.RawMessage `json:"plan"`

	// Cluster describes how cluster routing served the request:
	// remote hit, forwarded to the owner, or degraded to local
	// compute. Absent on single-node servers, for locally owned
	// fingerprints, and on local cache hits.
	Cluster *ClusterInfo `json:"cluster,omitempty"`
}

// Plan is the JSON shape of one compiled mapping plan.
type Plan struct {
	Program        string        `json:"program"`
	NeedsInspector bool          `json:"needs_inspector"`
	Nests          []NestSummary `json:"nests"`

	// Schedule[i][k] is the core assigned to iteration set k of nest
	// i; null for nests deferred to the inspector–executor runtime.
	Schedule [][]int `json:"schedule"`

	// Listing is the annotated output code (what cmd/locmap prints).
	Listing string `json:"listing"`
}

// NestSummary describes the mapping of one nest.
type NestSummary struct {
	Name         string  `json:"name"`
	Iterations   int64   `json:"iterations"`
	Sets         int     `json:"sets"`
	ParallelSafe bool    `json:"parallel_safe"`
	Inspector    bool    `json:"inspector"`
	RegionCounts []int   `json:"region_counts,omitempty"`
	Moved        int     `json:"moved,omitempty"`
	TotalError   float64 `json:"total_error,omitempty"`
}

// LegLatency is one NoC leg's transit accounting for a simulate run.
type LegLatency struct {
	Leg         string  `json:"leg"`
	Packets     uint64  `json:"packets"`
	TotalCycles uint64  `json:"total_cycles"`
	AvgCycles   float64 `json:"avg_cycles"`
}

// SimTelemetry is the per-request simulator telemetry for the
// location-aware run: the paper's evaluation quantities (LLC hit
// fractions, per-leg NoC latencies) aggregated post-run from
// sim.Stats and sim.LegSummaries, never sampled per-event.
type SimTelemetry struct {
	L1HitFraction  float64      `json:"l1_hit_fraction"`
	LLCHitFraction float64      `json:"llc_hit_fraction"`
	NoCLegs        []LegLatency `json:"noc_legs"`
}

// SimResult is the JSON shape of one simulation verification run.
type SimResult struct {
	Plan           *Plan        `json:"plan"`
	DefaultCycles  int64        `json:"default_cycles"`
	LocmapCycles   int64        `json:"locmap_cycles"`
	ImprovementPct float64      `json:"improvement_pct"`
	Telemetry      SimTelemetry `json:"telemetry"`
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// writeError emits the JSON error envelope, stamping the request id
// and recording the code for the access log.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, e *apiError) {
	if info := infoFromContext(r.Context()); info != nil {
		info.errCode = e.code
	}
	s.writeJSON(w, e.status, errorResponse{Error: ErrorBody{
		Code:      e.code,
		Message:   e.msg,
		RequestID: RequestIDFromContext(r.Context()),
	}})
}

// methodNotAllowed is the fallback handler behind each endpoint's
// method-qualified pattern: any method the pattern did not claim
// lands here.
func (s *Server) methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.writeError(w, r, errf(http.StatusMethodNotAllowed, ErrMethodNotAllowed,
			"method %s not allowed; use %s", r.Method, allow))
	}
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeError(w, r, errf(http.StatusNotFound, ErrNotFound,
		"no such endpoint: %s", r.URL.Path))
}

// decode reads and validates a JSON request body into dst.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.writeError(w, r, errf(http.StatusRequestEntityTooLarge, ErrBodyTooLarge,
				"request body exceeds %d bytes", mbe.Limit))
			return false
		}
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidBody,
			"bad request body: %v", err))
		return false
	}
	return true
}

// runJob executes job on the bounded worker pool under the request
// timeout. It returns the job's serialized payload or the apiError to
// report. A successful payload is cached under key tagged with tier
// from inside the job goroutine, so even a job whose request already
// timed out warms the plan cache for the client's retry. An empty key
// skips caching (verification jobs manage their cache entry
// themselves, via Upgrade).
func (s *Server) runJob(ctx context.Context, key, tier string, job func() ([]byte, error)) ([]byte, *apiError) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.rejects.Add(1)
		s.rejectsTotal.Inc()
		return nil, errf(http.StatusServiceUnavailable, ErrOverloaded,
			"no worker available: %v", ctx.Err())
	}
	s.inflight.Add(1)
	type jobResult struct {
		payload []byte
		err     error
	}
	done := make(chan jobResult, 1)
	go func() {
		defer func() {
			s.inflight.Add(-1)
			<-s.sem
		}()
		payload, err := job()
		if err == nil && key != "" {
			s.cache.PutTier(key, payload, tier)
		}
		done <- jobResult{payload, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			return nil, errf(http.StatusUnprocessableEntity, ErrCompileFailed,
				"%v", res.err)
		}
		return res.payload, nil
	case <-ctx.Done():
		// The job goroutine keeps running to completion in the
		// background; it only holds a worker slot, never the request,
		// and it still caches its result on success.
		s.timeouts.Add(1)
		s.timeoutTotal.Inc()
		return nil, errf(http.StatusGatewayTimeout, ErrTimeout,
			"request timed out after %v", s.cfg.RequestTimeout)
	}
}

// apiRequest is what serve needs from a request body: validation, the
// plan-cache spec whose fingerprint keys the result, and the resolved
// effective configuration echoed in the response. Both request types
// derive all three from the shared CommonRequest fields (simulate
// layering its TimingIters on top), so the two specs cannot drift.
type apiRequest interface {
	Validate() error
	spec(kind string) (plancache.Spec, error)
	resolved() Resolved
}

// serve is the shared handler body: validate, consult the cache, run
// the job on a worker if needed, respond. endpoint labels the cache
// metrics and names the owner's route a cluster forward posts to; kind
// namespaces the fingerprint. tier tags fresh results in the plan
// cache and the response envelope, and stands in for the tier of an
// entry stored without one; a cached entry otherwise keeps its stored
// tag. answered, if not nil, runs with the key and tier of every
// answer this node serves from its own cache or pipeline, just before
// the response is written.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, req apiRequest, endpoint, kind, tier string, job func() ([]byte, error), answered func(key, tier string)) {
	if err := req.Validate(); err != nil {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: %v", err))
		return
	}
	spec, err := req.spec(kind)
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
		resp.Cached = true
		resp.Tier = entry.Tier
		if resp.Tier == "" {
			resp.Tier = tier // pre-tiering entry (old journal replay)
		}
		resp.Plan = entry.Payload
	} else {
		cacheReqs("miss")
		handled, ci := s.clusterRespond(w, r, req, endpoint, key, tier, &resp)
		if handled {
			return
		}
		payload, apiErr := s.runJob(r.Context(), key, tier, job)
		if apiErr != nil {
			s.writeError(w, r, apiErr)
			return
		}
		s.clusterPublish(ci, key, payload, tier)
		resp.Cluster = ci
		resp.Tier = tier
		resp.Plan = payload
	}
	if answered != nil {
		answered(key, resp.Tier)
	}
	s.observeTier(resp.Tier)
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	var req MapRequest
	if !s.decode(w, r, &req) {
		return
	}
	if s.cfg.FastTier {
		// The fast tier shares /v1/estimate's fingerprints and payload
		// shape, so the same request hits the same cache entry on both
		// endpoints and observes the same verify/refine lifecycle.
		s.serveEstimate(w, r, &req, "map")
		return
	}
	s.serve(w, r, &req, "map", "map", TierStatic, func() ([]byte, error) {
		plan, err := compilePlan(&req)
		if err != nil {
			return nil, err
		}
		return json.Marshal(plan)
	}, nil)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.serve(w, r, &req, "simulate", "simulate", TierSim, func() ([]byte, error) {
		res, err := simulate(&req)
		if err != nil {
			return nil, err
		}
		s.observeSim(res)
		return json.Marshal(res)
	}, nil)
}

// observeSim folds one executed (non-cached) simulation's telemetry
// into the histograms. Cached replays are not re-observed: the
// distributions describe work the service actually performed.
func (s *Server) observeSim(res *SimResult) {
	s.simCycles.Observe(float64(res.LocmapCycles))
	s.simLLCHit.Observe(res.Telemetry.LLCHitFraction)
	for _, leg := range res.Telemetry.NoCLegs {
		if h, ok := s.simLegAvg[leg.Leg]; ok && leg.Packets > 0 {
			h.Observe(leg.AvgCycles)
		}
	}
}

// compilePlan runs the compile pipeline for one request. It is safe to
// call concurrently: every call parses its own program and builds its
// own estimator, mapper and simulator.
func compilePlan(req *MapRequest) (*Plan, error) {
	_, opts, err := req.options()
	if err != nil {
		return nil, err
	}
	res, err := compiler.CompileSource(req.Source, opts)
	if err != nil {
		return nil, err
	}
	return planFromResult(res), nil
}

// compileBound is the step every estimating or simulating pipeline
// starts with: resolve the target, then compiler.CompileBound (compile,
// bind demo inputs to unbound index arrays, validate). compilePlan
// (static /v1/map) binds nothing and does not use it.
func (r *CommonRequest) compileBound() (sim.Config, compiler.Options, *compiler.Result, error) {
	cfg, opts, err := r.options()
	if err != nil {
		return sim.Config{}, compiler.Options{}, nil, err
	}
	res, err := compiler.CompileBound(r.Source, opts)
	if err != nil {
		return sim.Config{}, compiler.Options{}, nil, err
	}
	return cfg, opts, res, nil
}

// planFromResult flattens a compilation result into the wire shape.
func planFromResult(res *compiler.Result) *Plan {
	plan := &Plan{
		Program:        res.Program.Name,
		NeedsInspector: res.NeedsInspector,
		Nests:          make([]NestSummary, 0, len(res.Plans)),
		Schedule:       make([][]int, len(res.Plans)),
		Listing:        res.Listing(),
	}
	for i, np := range res.Plans {
		sum := NestSummary{
			Name:         np.Nest.Name,
			Iterations:   np.Nest.Iterations(),
			Sets:         len(np.Sets),
			ParallelSafe: np.ParallelSafe,
			Inspector:    np.NeedsInspector,
		}
		if np.Assignment != nil {
			nr := 0
			for _, r := range np.Assignment.Region {
				if int(r)+1 > nr {
					nr = int(r) + 1
				}
			}
			sum.RegionCounts = np.Assignment.RegionCounts(nr)
			sum.Moved = np.Assignment.Moved
			sum.TotalError = np.Assignment.TotalError
			cores := make([]int, len(np.Assignment.Core))
			for k, c := range np.Assignment.Core {
				cores[k] = int(c)
			}
			plan.Schedule[i] = cores
		}
		plan.Nests = append(plan.Nests, sum)
	}
	return plan
}

// telemetryFrom aggregates one finished run's machine-level counters
// into the wire shape. All inputs are whole-run aggregates read after
// the simulation completed.
func telemetryFrom(st sim.Stats, legs []sim.LegSummary) SimTelemetry {
	tel := SimTelemetry{
		L1HitFraction:  st.L1HitFraction(),
		LLCHitFraction: st.LLCHitFraction(),
		NoCLegs:        make([]LegLatency, 0, len(legs)),
	}
	for _, l := range legs {
		tel.NoCLegs = append(tel.NoCLegs, LegLatency{
			Leg:         l.Name,
			Packets:     l.Packets,
			TotalCycles: l.TotalCycles,
			AvgCycles:   l.AvgCycles(),
		})
	}
	return tel
}

// simulate compiles the request and compares the default round-robin
// schedule with the location-aware one through inspector.Compare,
// which runs both on one machine and shares an inspector program's
// profiled default iteration 0 with the baseline at one timing
// iteration; cmd/locmap's -run path does the same. The answer equals
// what two fresh machines compute, and the telemetry is the
// location-aware run's. /v1/simulate, background verification and
// optimize's verification children all simulate here.
func simulate(req *SimulateRequest) (*SimResult, error) {
	cfg, opts, res, err := req.compileBound()
	if err != nil {
		return nil, err
	}
	p := res.Program
	if req.TimingIters > 0 {
		p.TimingIters = req.TimingIters
	}
	sched := res.Schedule
	if res.NeedsInspector {
		sched = nil // the inspector maps every nest at run time
	}
	defCycles, laCycles, sys := inspector.Compare(sim.New(cfg), p, sched, core.NewMapper(opts.Mapper), inspector.DefaultOverhead())
	return &SimResult{
		Plan:           planFromResult(res),
		DefaultCycles:  defCycles,
		LocmapCycles:   laCycles,
		ImprovementPct: stats.PctReduction(float64(defCycles), float64(laCycles)),
		Telemetry:      telemetryFrom(sys.Stats(), sys.LegSummaries()),
	}, nil
}

// QueueDepths is the jobqueue's per-class queued-work breakdown in
// the stats payload — the same depths /metrics exports, so operators
// get one consistent view from either surface.
type QueueDepths struct {
	// Batch counts queued batch and optimize jobs; Background counts
	// queued verify/remap jobs.
	Batch      int `json:"batch"`
	Background int `json:"background"`
}

// StatsSnapshot is the body of GET /v1/stats.
type StatsSnapshot struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Requests      uint64          `json:"requests"`
	Errors        uint64          `json:"errors"`
	Rejects       uint64          `json:"rejects"`
	Timeouts      uint64          `json:"timeouts"`
	Workers       int             `json:"workers"`
	Inflight      int64           `json:"inflight"`
	Cache         plancache.Stats `json:"cache"`
	LatencyCount  uint64          `json:"latency_count"`
	LatencyP50Ms  float64         `json:"latency_p50_ms"`
	LatencyP99Ms  float64         `json:"latency_p99_ms"`

	// Jobqueue is the per-class queued-job depth; ActiveSessions the
	// registered long-running sessions.
	Jobqueue       QueueDepths `json:"jobqueue"`
	ActiveSessions int         `json:"active_sessions"`
}

// Snapshot collects the current counters. Requests counts every
// response the service produced — errors, enveloped 404/405s and this
// stats request's predecessors included — so it always agrees with
// the sum over locmapd_requests_total in /metrics.
func (s *Server) Snapshot() StatsSnapshot {
	qs := s.lat.Quantiles(0.50, 0.99)
	return StatsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Errors:        s.errors.Load(),
		Rejects:       s.rejects.Load(),
		Timeouts:      s.timeouts.Load(),
		Workers:       s.cfg.Workers,
		Inflight:      s.inflight.Load(),
		Cache:         s.cache.Stats(),
		LatencyCount:  s.lat.Count(),
		LatencyP50Ms:  qs[0] * 1000,
		LatencyP99Ms:  qs[1] * 1000,
		Jobqueue: QueueDepths{
			Batch:      s.queue.Depth(),
			Background: s.queue.BackgroundDepth(),
		},
		ActiveSessions: s.tenants.Active(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}
