// Package jobqueue is locmapd's durable asynchronous batch-job
// subsystem: clients submit a batch of mapping/simulation specs,
// get back ids immediately, and poll for results while a bounded
// worker pool drains the queue in the background.
//
// Durability comes from an append-only JSONL journal (see journal.go):
// every accepted batch and every state transition is appended and
// fsync'd before the call returns, so queued and completed work
// survives a crash. On startup the journal is replayed — done jobs
// keep their results, queued and running jobs are re-queued — and a
// size-triggered compaction folds the journal into a snapshot file so
// it cannot grow without bound.
//
// The job lifecycle is
//
//	queued → running → done | failed
//	queued → cancelled
//	done | failed | cancelled → expired   (result-retention TTL)
//
// Jobs are deduplicated by their caller-supplied fingerprint (locmapd
// uses the plan-cache fingerprint): a job whose fingerprint already
// completed is answered from that result without re-executing, and
// concurrent jobs with the same fingerprint are single-flighted — one
// executes, the rest wait and share its result.
//
// Jobs come in two scheduling classes (Priority): user-submitted
// batch work, which is durable and drained first, and opportunistic
// background work (SubmitBackground — locmapd's estimate-verification
// jobs), which is non-durable, separately bounded, and only runs when
// no batch job is waiting.
//
// An executor may orchestrate: submit child jobs and wait for them
// with Await, which runs any child still waiting in a pending FIFO on
// the caller's own goroutine. An orchestrator holding the only pool
// worker therefore never deadlocks against its children (locmapd's
// /v1/optimize searches verify their survivors this way).
//
// The package knows nothing about HTTP or the mapping pipeline: the
// owner supplies an Exec callback (locmapd routes it through the
// Server.runJob/plancache path, so batch results warm — and are
// warmed by — the synchronous plan cache).
package jobqueue

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"locmap/internal/metrics"
)

// State is one point in the job lifecycle.
type State string

const (
	// StateQueued: accepted and journaled, waiting for a worker.
	StateQueued State = "queued"

	// StateRunning: claimed by a worker, executing.
	StateRunning State = "running"

	// StateDone: executed successfully; Result holds the payload.
	StateDone State = "done"

	// StateFailed: the executor returned an error; Error holds it.
	StateFailed State = "failed"

	// StateCancelled: cancelled while still queued.
	StateCancelled State = "cancelled"

	// StateExpired: a terminal job whose result outlived the retention
	// TTL. Expired jobs are dropped from memory (and from the snapshot
	// at the next compaction); they remain visible only as expired
	// stubs in their batch's aggregate view.
	StateExpired State = "expired"
)

// States lists every lifecycle state in declaration order (metrics
// and documentation iterate it).
var States = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled, StateExpired}

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCancelled, StateExpired:
		return true
	}
	return false
}

// rank orders states for idempotent journal replay: a replayed
// transition may only move a job forward, never backwards (guards the
// crash window between snapshot rename and journal truncation, where
// already-compacted transitions are replayed a second time).
func (s State) rank() int {
	switch s {
	case StateQueued:
		return 0
	case StateRunning:
		return 1
	case StateDone, StateFailed, StateCancelled:
		return 2
	case StateExpired:
		return 3
	}
	return -1
}

// Priority separates user-facing batch work from opportunistic
// background work. Workers always drain batch-priority jobs first, so
// background fan-out (locmapd's estimate-verification jobs) can never
// starve explicit batch traffic.
type Priority int

const (
	// PriorityBatch is the default: user-submitted, durable work.
	PriorityBatch Priority = iota
	// PriorityBackground is opportunistic work that runs only when no
	// batch job is waiting. Background jobs are non-durable: they are
	// never journaled, do not survive a restart, and are bounded by
	// BackgroundLimit instead of QueueLimit.
	PriorityBackground
	numPriorities
)

// Spec is what a client submits for one job.
type Spec struct {
	// Kind names the result type ("map" or "simulate" in locmapd).
	Kind string `json:"kind"`

	// Fingerprint is the canonical identity of the work: jobs with
	// equal fingerprints produce byte-identical results, so the queue
	// executes each fingerprint at most once.
	Fingerprint string `json:"fingerprint"`

	// Priority selects the scheduling class. SubmitBatch forces
	// PriorityBatch; SubmitBackground forces PriorityBackground.
	Priority Priority `json:"priority,omitempty"`

	// Request is the opaque request body the executor will decode.
	Request json.RawMessage `json:"request,omitempty"`
}

// Job is one unit of work and its full lifecycle record. The queue
// hands out copies; mutating one never affects queue state.
type Job struct {
	Spec

	ID string `json:"id"`

	// BatchID groups user-submitted jobs; background jobs have none.
	BatchID string `json:"batch_id,omitempty"`

	// SubmitRequestID is the correlation id of the HTTP request that
	// submitted the job, persisted so a job is traceable back to its
	// submission's access-log line.
	SubmitRequestID string `json:"submit_request_id,omitempty"`

	State State `json:"state"`

	// Cached reports that Result was satisfied from a previously
	// completed job with the same fingerprint (or the owner's cache)
	// instead of a fresh execution.
	Cached bool `json:"cached,omitempty"`

	// Error holds the failure message for StateFailed.
	Error string `json:"error,omitempty"`

	// Result holds the serialized payload for StateDone.
	Result json.RawMessage `json:"result,omitempty"`

	// Progress is the executor's latest point-in-time progress payload
	// (SetProgress), present only while the job is live: on a terminal
	// transition it is cleared and its final value preserved as
	// ProgressSummary.
	Progress json.RawMessage `json:"progress,omitempty"`

	// ProgressSummary is the last progress payload the executor
	// reported before the job reached a terminal state — a finished
	// (or failed) optimize/remap job still explains what happened. It
	// is journaled with the terminal transition, so it survives
	// restarts alongside the result.
	ProgressSummary json.RawMessage `json:"progress_summary,omitempty"`

	// Seq is this process's monotone submission sequence, the cursor
	// space of List. It is assigned at submit (and again, in journal
	// order, at replay), so it is process-local and never persisted.
	Seq int64 `json:"-"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// Batch groups the jobs of one submission.
type Batch struct {
	ID string `json:"id"`

	// SubmitRequestID is the correlation id of the submitting request.
	SubmitRequestID string `json:"submit_request_id,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`

	// JobIDs lists the batch's jobs in submission order. It always
	// holds the full list, even after members expire.
	JobIDs []string `json:"job_ids"`
}

// Errors returned by queue operations. The server maps each to a
// stable API error code.
var (
	// ErrNotFound: no job or batch with that id (never existed, or
	// expired out of retention).
	ErrNotFound = errors.New("jobqueue: not found")

	// ErrNotCancellable: the job is running or already terminal.
	ErrNotCancellable = errors.New("jobqueue: job is not cancellable")

	// ErrQueueFull: accepting the batch would exceed QueueLimit.
	ErrQueueFull = errors.New("jobqueue: queue is full")

	// ErrClosed: the queue is shutting down.
	ErrClosed = errors.New("jobqueue: closed")
)

// Config parameterizes a Queue.
type Config struct {
	// Dir is the journal directory. Empty disables durability: the
	// queue still works, but pending work is lost on exit.
	Dir string

	// Workers bounds concurrently executing jobs (default
	// max(1, GOMAXPROCS/2) — batch work should not starve the
	// synchronous path it shares compute with).
	Workers int

	// ResultTTL bounds how long a terminal job's record (and result)
	// is retained after it finishes (default 15m).
	ResultTTL time.Duration

	// QueueLimit bounds the number of queued-but-not-finished
	// batch-priority jobs a submission may grow the queue to
	// (default 1024).
	QueueLimit int

	// BackgroundLimit bounds queued background-priority jobs
	// (default: QueueLimit). Background submissions beyond it are
	// rejected with ErrQueueFull — callers treat background work as
	// best-effort and drop it.
	BackgroundLimit int

	// CompactBytes triggers journal compaction once the live journal
	// file exceeds this size (default 4MiB).
	CompactBytes int64

	// SweepInterval is the retention sweeper's period (default 30s).
	SweepInterval time.Duration

	// Exec executes one job and returns its serialized result.
	// cached reports that the payload came from the owner's cache
	// rather than a fresh execution. Required.
	Exec func(ctx context.Context, job *Job) (payload []byte, cached bool, err error)

	// Replayed, if set, is called once per done job recovered during
	// startup replay (locmapd warms its plan cache from it).
	Replayed func(job *Job)

	// Registry receives the queue's metric families (nil = none).
	Registry *metrics.Registry

	// Logger receives replay/compaction/worker diagnostics (default
	// slog.Default()).
	Logger *slog.Logger

	// Now overrides the clock (tests); defaults to time.Now.
	Now func() time.Time
}

// Queue is the durable batch-job queue. Create with Open; all methods
// are safe for concurrent use.
type Queue struct {
	cfg Config
	log *slog.Logger

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	batches map[string]*Batch
	pending [numPriorities][]string // FIFO of queued job ids per priority
	byFP    map[string]string       // fingerprint -> id of a done job holding a result
	running map[string]string       // fingerprint -> id of the running leader
	waiters map[string][]string
	seq     int64    // monotone submission sequence (List cursor space)
	jrn     *journal // nil when Dir == ""
	closing bool

	// counters (guarded by mu; exported to metrics at scrape time)
	transitions map[State]uint64
	dedups      uint64
	evictions   uint64
	replayDur   time.Duration

	runCtx    context.Context
	runStop   context.CancelFunc
	wg        sync.WaitGroup
	sweepStop chan struct{}
}

func (q *Queue) now() time.Time {
	if q.cfg.Now != nil {
		return q.cfg.Now()
	}
	return time.Now()
}

// newID returns a 16-hex-char random id (the request-id alphabet, so
// ids are safe in headers, logs and file contents).
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobqueue: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Open builds a queue, replays the journal in dir (if any), registers
// metrics, and starts the worker pool and retention sweeper.
func Open(cfg Config) (*Queue, error) {
	if cfg.Exec == nil {
		return nil, errors.New("jobqueue: Config.Exec is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0) / 2
		if cfg.Workers < 1 {
			cfg.Workers = 1
		}
	}
	if cfg.ResultTTL <= 0 {
		cfg.ResultTTL = 15 * time.Minute
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 1024
	}
	if cfg.BackgroundLimit <= 0 {
		cfg.BackgroundLimit = cfg.QueueLimit
	}
	if cfg.CompactBytes <= 0 {
		cfg.CompactBytes = 4 << 20
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	q := &Queue{
		cfg:         cfg,
		log:         cfg.Logger,
		jobs:        make(map[string]*Job),
		batches:     make(map[string]*Batch),
		byFP:        make(map[string]string),
		running:     make(map[string]string),
		waiters:     make(map[string][]string),
		transitions: make(map[State]uint64),
		sweepStop:   make(chan struct{}),
	}
	q.cond = sync.NewCond(&q.mu)
	q.runCtx, q.runStop = context.WithCancel(context.Background())
	if cfg.Dir != "" {
		start := time.Now()
		jrn, err := openJournal(cfg.Dir, q.log)
		if err != nil {
			return nil, err
		}
		q.jrn = jrn
		if err := q.replay(jrn); err != nil {
			jrn.Close()
			return nil, err
		}
		q.replayDur = time.Since(start)
		q.log.Info("jobqueue replayed", "dir", cfg.Dir,
			"jobs", len(q.jobs), "queued", len(q.pending[PriorityBatch]),
			"elapsed", q.replayDur)
	}
	q.register(cfg.Registry)
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	q.wg.Add(1)
	go q.sweeper()
	return q, nil
}

// replay loads the snapshot and journal into queue state. It runs
// before any worker starts, so no locking is needed; transition
// application is shared with the live path via applyReplayed.
func (q *Queue) replay(jrn *journal) error {
	return jrn.Replay(func(rec *record) {
		switch rec.Op {
		case opBatch:
			if rec.Batch == nil || rec.Batch.ID == "" {
				return
			}
			if _, dup := q.batches[rec.Batch.ID]; dup {
				return // re-replayed after an interrupted compaction
			}
			b := *rec.Batch
			q.batches[b.ID] = &b
			for _, jr := range rec.Jobs {
				j := *jr
				// Only batch jobs are journaled; anything replayed is
				// batch priority by construction.
				j.Priority = PriorityBatch
				q.seq++
				j.Seq = q.seq
				switch j.State {
				case StateQueued, StateRunning:
					// A job that was mid-run when the process died is
					// re-run from scratch.
					j.State = StateQueued
					j.StartedAt = time.Time{}
					j.Progress = nil
					q.pending[PriorityBatch] = append(q.pending[PriorityBatch], j.ID)
					q.transitions[StateQueued]++
				case StateDone:
					q.byFP[j.Fingerprint] = j.ID
					q.transitions[StateDone]++
					if q.cfg.Replayed != nil {
						q.cfg.Replayed(&j)
					}
				default:
					q.transitions[j.State]++
				}
				q.jobs[j.ID] = &j
			}
		case opState:
			j, ok := q.jobs[rec.ID]
			if !ok {
				return // expired or torn away; nothing to apply
			}
			if rec.State.rank() <= j.State.rank() {
				return // replay must never move a job backwards
			}
			switch rec.State {
			case StateRunning:
				// Mid-run at crash: stays queued for a fresh run.
			case StateDone:
				j.State = StateDone
				j.Cached = rec.Cached
				j.Result = rec.Result
				j.ProgressSummary = rec.Progress
				j.FinishedAt = rec.T
				q.unqueue(j.ID)
				q.byFP[j.Fingerprint] = j.ID
				q.transitions[StateDone]++
				if q.cfg.Replayed != nil {
					q.cfg.Replayed(j)
				}
			case StateFailed, StateCancelled:
				j.State = rec.State
				j.Error = rec.Error
				j.ProgressSummary = rec.Progress
				j.FinishedAt = rec.T
				q.unqueue(j.ID)
				q.transitions[rec.State]++
			case StateExpired:
				q.dropJob(j)
				q.transitions[StateExpired]++
			}
		}
	})
}

// unqueue removes id from its pending FIFO, reporting whether it was
// there.
func (q *Queue) unqueue(id string) bool {
	for pr := range q.pending {
		for i, p := range q.pending[pr] {
			if p == id {
				q.pending[pr] = append(q.pending[pr][:i], q.pending[pr][i+1:]...)
				return true
			}
		}
	}
	return false
}

// dropJob removes a job (and its batch, once all members are gone)
// from memory. Caller holds mu (or is single-threaded replay).
func (q *Queue) dropJob(j *Job) {
	delete(q.jobs, j.ID)
	if q.byFP[j.Fingerprint] == j.ID {
		delete(q.byFP, j.Fingerprint)
	}
	b := q.batches[j.BatchID]
	if b == nil {
		return
	}
	for _, id := range b.JobIDs {
		if _, live := q.jobs[id]; live {
			return
		}
	}
	delete(q.batches, j.BatchID)
}

// register exports the queue's metric families. Everything is sampled
// at scrape time from the queue's own accounting, so the families are
// always mutually consistent.
func (q *Queue) register(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			q.mu.Lock()
			defer q.mu.Unlock()
			return f()
		}
	}
	reg.GaugeFunc("locmapd_jobqueue_depth",
		"Jobs queued and waiting for a worker, by scheduling class.",
		metrics.Labels{"priority": "batch"},
		locked(func() float64 { return float64(len(q.pending[PriorityBatch])) }))
	reg.GaugeFunc("locmapd_jobqueue_depth",
		"Jobs queued and waiting for a worker, by scheduling class.",
		metrics.Labels{"priority": "background"},
		locked(func() float64 { return float64(len(q.pending[PriorityBackground])) }))
	for _, st := range States {
		st := st
		reg.CounterFunc("locmapd_jobqueue_transitions_total",
			"Batch-job lifecycle transitions by entered state.",
			metrics.Labels{"state": string(st)},
			locked(func() float64 { return float64(q.transitions[st]) }))
		if st == StateExpired {
			continue // expired jobs are dropped from memory
		}
		reg.GaugeFunc("locmapd_jobqueue_jobs",
			"Batch jobs currently resident, by state.",
			metrics.Labels{"state": string(st)},
			locked(func() float64 {
				n := 0
				for _, j := range q.jobs {
					if j.State == st {
						n++
					}
				}
				return float64(n)
			}))
	}
	reg.CounterFunc("locmapd_jobqueue_dedup_total",
		"Batch jobs completed from another job's result (same fingerprint).", nil,
		locked(func() float64 { return float64(q.dedups) }))
	reg.CounterFunc("locmapd_jobqueue_retention_evictions_total",
		"Terminal batch jobs expired by the result-retention sweeper.", nil,
		locked(func() float64 { return float64(q.evictions) }))
	reg.GaugeFunc("locmapd_jobqueue_replay_seconds",
		"Duration of the startup journal replay.", nil,
		func() float64 { return q.replayDur.Seconds() })
	if q.jrn != nil {
		reg.GaugeFunc("locmapd_jobqueue_journal_bytes",
			"Size of the live journal file.", nil,
			locked(func() float64 { return float64(q.jrn.bytes) }))
		reg.CounterFunc("locmapd_jobqueue_journal_records_total",
			"Journal records appended by this process.", nil,
			locked(func() float64 { return float64(q.jrn.appended) }))
		reg.CounterFunc("locmapd_jobqueue_compactions_total",
			"Journal compactions into the snapshot file.", nil,
			locked(func() float64 { return float64(q.jrn.compactions) }))
	}
}

// Depth reports the number of batch-priority jobs queued and waiting
// for a worker (the user-facing backlog readiness checks care about).
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending[PriorityBatch])
}

// BackgroundDepth reports the queued background-priority backlog.
func (q *Queue) BackgroundDepth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending[PriorityBackground])
}

// QueueLimit reports the configured batch queue bound.
func (q *Queue) QueueLimit() int { return q.cfg.QueueLimit }

// BackgroundLimit reports the configured background queue bound.
func (q *Queue) BackgroundLimit() int { return q.cfg.BackgroundLimit }

// Result returns a copy of the retained result of a done job with the
// given fingerprint, if any. It lets owners re-apply a completed
// background job's payload (e.g. a finished verification) without
// submitting new work.
func (q *Queue) Result(fingerprint string) (json.RawMessage, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	id, ok := q.byFP[fingerprint]
	if !ok {
		return nil, false
	}
	j, live := q.jobs[id]
	if !live || j.State != StateDone {
		return nil, false
	}
	out := make(json.RawMessage, len(j.Result))
	copy(out, j.Result)
	return out, true
}

// SubmitBatch atomically accepts specs as one batch: every job is
// journaled (one fsync'd record) before the call returns. requestID
// is the submitting request's correlation id, persisted on the batch
// and each job.
func (q *Queue) SubmitBatch(requestID string, specs []Spec) (Batch, []Job, error) {
	if len(specs) == 0 {
		return Batch{}, nil, errors.New("jobqueue: empty batch")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closing {
		return Batch{}, nil, ErrClosed
	}
	depth := len(q.pending[PriorityBatch]) + q.waiterCount(PriorityBatch)
	if depth+len(specs) > q.cfg.QueueLimit {
		return Batch{}, nil, fmt.Errorf("%w: %d queued of %d", ErrQueueFull,
			depth, q.cfg.QueueLimit)
	}
	now := q.now()
	b := &Batch{
		ID:              newID(),
		SubmitRequestID: requestID,
		SubmittedAt:     now,
		JobIDs:          make([]string, 0, len(specs)),
	}
	jobs := make([]*Job, 0, len(specs))
	for _, sp := range specs {
		sp.Priority = PriorityBatch
		j := &Job{
			Spec:            sp,
			ID:              newID(),
			BatchID:         b.ID,
			SubmitRequestID: requestID,
			State:           StateQueued,
			SubmittedAt:     now,
		}
		b.JobIDs = append(b.JobIDs, j.ID)
		jobs = append(jobs, j)
	}
	if q.jrn != nil {
		if err := q.jrn.AppendBatch(b, jobs, now); err != nil {
			return Batch{}, nil, fmt.Errorf("jobqueue: journal batch: %w", err)
		}
	}
	q.batches[b.ID] = b
	for _, j := range jobs {
		q.seq++
		j.Seq = q.seq
		q.jobs[j.ID] = j
		q.pending[PriorityBatch] = append(q.pending[PriorityBatch], j.ID)
		q.transitions[StateQueued]++
	}
	q.cond.Broadcast()
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		out[i] = *j
	}
	q.maybeCompactLocked()
	return *b, out, nil
}

func (q *Queue) waiterCount(pr Priority) int {
	n := 0
	for _, ws := range q.waiters {
		for _, id := range ws {
			if j, ok := q.jobs[id]; ok && j.Priority == pr {
				n++
			}
		}
	}
	return n
}

// SubmitBackground enqueues one background-priority job. Background
// work is opportunistic: it is never journaled (a restart forgets it),
// it runs only when no batch job is waiting, and submissions beyond
// BackgroundLimit are rejected with ErrQueueFull. A job whose
// fingerprint is already done, running or queued is coalesced — the
// existing job's snapshot is returned and nothing new is enqueued.
func (q *Queue) SubmitBackground(requestID string, sp Spec) (Job, error) {
	sp.Priority = PriorityBackground
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closing {
		return Job{}, ErrClosed
	}
	if doneID, ok := q.byFP[sp.Fingerprint]; ok {
		if done, live := q.jobs[doneID]; live && done.State == StateDone {
			return *done, nil
		}
	}
	if leadID, ok := q.running[sp.Fingerprint]; ok {
		if lead, live := q.jobs[leadID]; live {
			return *lead, nil
		}
	}
	for _, id := range q.pending[PriorityBackground] {
		if j, ok := q.jobs[id]; ok && j.State == StateQueued && j.Fingerprint == sp.Fingerprint {
			return *j, nil
		}
	}
	if len(q.pending[PriorityBackground]) >= q.cfg.BackgroundLimit {
		return Job{}, fmt.Errorf("%w: %d background queued of %d", ErrQueueFull,
			len(q.pending[PriorityBackground]), q.cfg.BackgroundLimit)
	}
	j := &Job{
		Spec:            sp,
		ID:              newID(),
		SubmitRequestID: requestID,
		State:           StateQueued,
		SubmittedAt:     q.now(),
	}
	q.seq++
	j.Seq = q.seq
	q.jobs[j.ID] = j
	q.pending[PriorityBackground] = append(q.pending[PriorityBackground], j.ID)
	q.transitions[StateQueued]++
	q.cond.Broadcast()
	return *j, nil
}

// Submit atomically accepts one durable batch-priority job (journaled
// as a batch of one). Like SubmitBackground, submissions coalesce
// against an existing job with the same fingerprint — done, running
// or queued — so re-submitting an identical optimize request returns
// the existing job instead of re-running the search.
func (q *Queue) Submit(requestID string, sp Spec) (Job, error) {
	sp.Priority = PriorityBatch
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closing {
		return Job{}, ErrClosed
	}
	if doneID, ok := q.byFP[sp.Fingerprint]; ok {
		if done, live := q.jobs[doneID]; live && done.State == StateDone {
			return *done, nil
		}
	}
	if leadID, ok := q.running[sp.Fingerprint]; ok {
		if lead, live := q.jobs[leadID]; live {
			return *lead, nil
		}
	}
	for _, id := range q.pending[PriorityBatch] {
		if j, ok := q.jobs[id]; ok && j.State == StateQueued && j.Fingerprint == sp.Fingerprint {
			return *j, nil
		}
	}
	depth := len(q.pending[PriorityBatch]) + q.waiterCount(PriorityBatch)
	if depth+1 > q.cfg.QueueLimit {
		return Job{}, fmt.Errorf("%w: %d queued of %d", ErrQueueFull, depth, q.cfg.QueueLimit)
	}
	now := q.now()
	b := &Batch{
		ID:              newID(),
		SubmitRequestID: requestID,
		SubmittedAt:     now,
	}
	j := &Job{
		Spec:            sp,
		ID:              newID(),
		BatchID:         b.ID,
		SubmitRequestID: requestID,
		State:           StateQueued,
		SubmittedAt:     now,
	}
	b.JobIDs = []string{j.ID}
	if q.jrn != nil {
		if err := q.jrn.AppendBatch(b, []*Job{j}, now); err != nil {
			return Job{}, fmt.Errorf("jobqueue: journal job: %w", err)
		}
	}
	q.batches[b.ID] = b
	q.seq++
	j.Seq = q.seq
	q.jobs[j.ID] = j
	q.pending[PriorityBatch] = append(q.pending[PriorityBatch], j.ID)
	q.transitions[StateQueued]++
	q.cond.Broadcast()
	q.maybeCompactLocked()
	return *j, nil
}

// SetProgress attaches a point-in-time progress payload to a live
// job, visible in Job/Batch/List snapshots. Progress on a terminal
// job is silently dropped (the executor may race its own completion);
// unknown ids return ErrNotFound.
func (q *Queue) SetProgress(id string, p json.RawMessage) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return ErrNotFound
	}
	if j.State.Terminal() {
		return nil
	}
	j.Progress = append(json.RawMessage(nil), p...)
	return nil
}

// ListOptions filters and paginates List.
type ListOptions struct {
	// State restricts to one lifecycle state ("" = all).
	State State

	// Limit bounds the page size (required, > 0).
	Limit int

	// Before is an exclusive upper bound on Job.Seq — the cursor
	// returned by the previous page. Zero starts at the newest job.
	Before int64
}

// List returns resident jobs newest-first (by submission sequence),
// plus the cursor for the next page (0 when this page reaches the
// oldest job). The sequence is process-local: replay renumbers jobs in
// journal order, so cursors do not survive a restart — callers treat
// an empty page as the end and restart pagination from scratch.
func (q *Queue) List(opts ListOptions) ([]Job, int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	matches := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		if opts.State != "" && j.State != opts.State {
			continue
		}
		if opts.Before > 0 && j.Seq >= opts.Before {
			continue
		}
		matches = append(matches, j)
	}
	sort.Slice(matches, func(i, k int) bool { return matches[i].Seq > matches[k].Seq })
	next := int64(0)
	if opts.Limit > 0 && len(matches) > opts.Limit {
		matches = matches[:opts.Limit]
		next = matches[len(matches)-1].Seq
	}
	out := make([]Job, len(matches))
	for i, j := range matches {
		out[i] = *j
	}
	return out, next
}

// Job returns a snapshot of the job, or false if it does not exist
// (never submitted, or expired out of retention).
func (q *Queue) Job(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Batch returns the batch record and a snapshot of each member job in
// submission order. Members that expired out of retention are
// reported as stubs in StateExpired.
func (q *Queue) Batch(id string) (Batch, []Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	b, ok := q.batches[id]
	if !ok {
		return Batch{}, nil, false
	}
	jobs := make([]Job, 0, len(b.JobIDs))
	for _, jid := range b.JobIDs {
		if j, live := q.jobs[jid]; live {
			jobs = append(jobs, *j)
		} else {
			jobs = append(jobs, Job{ID: jid, BatchID: b.ID, State: StateExpired,
				SubmitRequestID: b.SubmitRequestID, SubmittedAt: b.SubmittedAt})
		}
	}
	return *b, jobs, true
}

// Cancel cancels a queued job. Running and terminal jobs are not
// cancellable (ErrNotCancellable); unknown ids return ErrNotFound.
func (q *Queue) Cancel(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	if j.State != StateQueued {
		return *j, fmt.Errorf("%w: state is %s", ErrNotCancellable, j.State)
	}
	if err := q.transitionLocked(j, StateCancelled, nil, false, "cancelled by client"); err != nil {
		return Job{}, err
	}
	q.unqueue(id)
	// If it was parked behind a running leader, detach it.
	for leader, ws := range q.waiters {
		for i, w := range ws {
			if w == id {
				q.waiters[leader] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
	}
	return *j, nil
}

// transitionLocked journals and applies one state transition. Caller
// holds mu.
func (q *Queue) transitionLocked(j *Job, st State, result []byte, cached bool, errMsg string) error {
	now := q.now()
	// A terminal transition freezes the live progress payload into the
	// job's durable progress summary (journaled with the transition).
	var progress json.RawMessage
	if st.Terminal() && len(j.Progress) > 0 {
		progress = j.Progress
	}
	// Background jobs are non-durable by design: never journaled, so
	// their transitions are memory-only.
	if q.jrn != nil && j.Priority == PriorityBatch {
		if err := q.jrn.AppendState(j.ID, st, result, cached, errMsg, progress, now); err != nil {
			return fmt.Errorf("jobqueue: journal transition: %w", err)
		}
	}
	j.State = st
	switch st {
	case StateRunning:
		j.StartedAt = now
	case StateDone:
		j.Result = result
		j.Cached = cached
		j.FinishedAt = now
		j.ProgressSummary = progress
		j.Progress = nil
		q.byFP[j.Fingerprint] = j.ID
	case StateFailed:
		j.Error = errMsg
		j.FinishedAt = now
		j.ProgressSummary = progress
		j.Progress = nil
	case StateCancelled:
		j.FinishedAt = now
		j.ProgressSummary = progress
		j.Progress = nil
	}
	q.transitions[st]++
	if st.Terminal() {
		q.cond.Broadcast() // wake Await callers
	}
	q.maybeCompactLocked()
	return nil
}

// worker is one pool goroutine: claim the oldest queued job, batch
// FIFO before background, and run it.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		pr := q.claimable()
		for pr < 0 && !q.closing {
			q.cond.Wait()
			pr = q.claimable()
		}
		if q.closing {
			q.mu.Unlock()
			return
		}
		id := q.pending[pr][0]
		q.pending[pr] = q.pending[pr][1:]
		q.runLocked(id)
		q.mu.Unlock()
	}
}

// claimable returns the first priority with a waiting job, or -1.
// Caller holds mu.
func (q *Queue) claimable() int {
	for pr := range q.pending {
		if len(q.pending[pr]) > 0 {
			return pr
		}
	}
	return -1
}

// runLocked takes one job just removed from its pending FIFO through
// the lifecycle every claimant shares: a finished twin answers it, a
// running twin parks it, and otherwise it executes and its parked
// waiters share the outcome. Caller holds mu; it is released while
// Exec runs.
func (q *Queue) runLocked(id string) {
	j, ok := q.jobs[id]
	if !ok || j.State != StateQueued {
		return // cancelled or expired while queued
	}
	// Served from a finished twin?
	if doneID, ok := q.byFP[j.Fingerprint]; ok {
		if done, live := q.jobs[doneID]; live && done.State == StateDone {
			q.completeDedupLocked(j, done.Result)
			return
		}
	}
	// Single-flight: park behind a running twin.
	if leader, ok := q.running[j.Fingerprint]; ok {
		q.waiters[leader] = append(q.waiters[leader], j.ID)
		return
	}
	if err := q.transitionLocked(j, StateRunning, nil, false, ""); err != nil {
		q.failJournalLocked(j, err)
		return
	}
	q.running[j.Fingerprint] = j.ID
	jc := *j // executor gets a copy; queue state stays ours
	q.mu.Unlock()

	payload, cached, err := q.cfg.Exec(q.runCtx, &jc)

	q.mu.Lock()
	delete(q.running, j.Fingerprint)
	ws := q.waiters[j.ID]
	delete(q.waiters, j.ID)
	if err != nil && q.closing && q.runCtx.Err() != nil {
		// Shutdown interrupted the run. Leave the journal at
		// "running": replay re-queues it for the next process.
		q.requeueLocked(ws)
		return
	}
	if err != nil {
		if terr := q.transitionLocked(j, StateFailed, nil, false, err.Error()); terr != nil {
			q.failJournalLocked(j, terr)
		}
		// Waiters were parked on this execution, not on the
		// failure: give each its own run.
		q.requeueLocked(ws)
		return
	}
	if terr := q.transitionLocked(j, StateDone, payload, cached, ""); terr != nil {
		q.failJournalLocked(j, terr)
	}
	for _, wid := range ws {
		if w, live := q.jobs[wid]; live && w.State == StateQueued {
			q.completeDedupLocked(w, j.Result)
		}
	}
}

// Await blocks until every job in ids is terminal and returns their
// final snapshots in ids order; a job already expired out of
// retention is reported as a StateExpired stub. While it waits, Await
// claims any listed job still in a pending FIFO and runs it on the
// caller's goroutine, so an executor can wait for the children it
// submitted even when it holds the only pool worker. A listed job
// parked behind a running twin is waited for, not claimed, and once
// Close has begun Await claims nothing. onDone (optional) is called
// without the queue lock each time the count of terminal jobs grows.
// Await returns ctx's error if ctx ends first.
func (q *Queue) Await(ctx context.Context, ids []string, onDone func(done int)) ([]Job, error) {
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		q.cond.Broadcast()
	})
	defer stop()
	q.mu.Lock()
	reported := 0
	for {
		done := 0
		for _, id := range ids {
			if j, ok := q.jobs[id]; !ok || j.State.Terminal() {
				done++
			}
		}
		if done > reported && onDone != nil {
			reported = done
			q.mu.Unlock()
			onDone(done)
			q.mu.Lock()
			continue
		}
		if done == len(ids) {
			out := make([]Job, len(ids))
			for i, id := range ids {
				out[i] = Job{ID: id, State: StateExpired}
				if j, ok := q.jobs[id]; ok {
					out[i] = *j
				}
			}
			q.mu.Unlock()
			return out, nil
		}
		if err := ctx.Err(); err != nil {
			q.mu.Unlock()
			return nil, err
		}
		if !q.closing && q.claimListed(ids) {
			continue
		}
		q.cond.Wait()
	}
}

// claimListed runs the first job of ids still waiting in a pending
// FIFO, reporting whether there was one. Caller holds mu.
func (q *Queue) claimListed(ids []string) bool {
	for _, id := range ids {
		if q.unqueue(id) {
			q.runLocked(id)
			return true
		}
	}
	return false
}

// completeDedupLocked finishes a queued job from an existing result.
func (q *Queue) completeDedupLocked(j *Job, result json.RawMessage) {
	if err := q.transitionLocked(j, StateDone, result, true, ""); err != nil {
		q.failJournalLocked(j, err)
		return
	}
	q.dedups++
}

// requeueLocked puts still-queued waiter jobs back at the head of
// their pending FIFO, preserving their order.
func (q *Queue) requeueLocked(ids []string) {
	var live [numPriorities][]string
	n := 0
	for _, id := range ids {
		if j, ok := q.jobs[id]; ok && j.State == StateQueued {
			live[j.Priority] = append(live[j.Priority], id)
			n++
		}
	}
	if n == 0 {
		return
	}
	for pr := range live {
		if len(live[pr]) == 0 {
			continue
		}
		q.pending[pr] = append(append(make([]string, 0, len(live[pr])+len(q.pending[pr])), live[pr]...), q.pending[pr]...)
	}
	q.cond.Broadcast()
}

// failJournalLocked handles a journal append failure mid-transition:
// the job is failed in memory so clients see a terminal state even
// though the disk record is behind (replay will re-run it — safe,
// since execution is idempotent by fingerprint).
func (q *Queue) failJournalLocked(j *Job, err error) {
	q.log.Error("jobqueue journal append failed", "job", j.ID, "error", err)
	if !j.State.Terminal() {
		j.State = StateFailed
		j.Error = err.Error()
		j.FinishedAt = q.now()
		q.transitions[StateFailed]++
		q.cond.Broadcast()
	}
}

// sweeper periodically expires terminal jobs whose results outlived
// ResultTTL.
func (q *Queue) sweeper() {
	defer q.wg.Done()
	t := time.NewTicker(q.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			q.sweep()
		case <-q.sweepStop:
			return
		}
	}
}

// sweep expires every terminal job older than ResultTTL, dropping its
// record (and result) from memory and journaling the expiry so replay
// agrees.
func (q *Queue) sweep() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closing {
		return
	}
	cutoff := q.now().Add(-q.cfg.ResultTTL)
	for _, j := range q.jobs {
		if !j.State.Terminal() || j.FinishedAt.After(cutoff) {
			continue
		}
		if q.jrn != nil && j.Priority == PriorityBatch {
			if err := q.jrn.AppendState(j.ID, StateExpired, nil, false, "", nil, q.now()); err != nil {
				q.log.Error("jobqueue journal expiry failed", "job", j.ID, "error", err)
				continue
			}
		}
		q.dropJob(j)
		q.transitions[StateExpired]++
		q.evictions++
	}
	q.maybeCompactLocked()
}

// maybeCompactLocked folds the journal into a fresh snapshot when it
// has outgrown CompactBytes. Caller holds mu.
func (q *Queue) maybeCompactLocked() {
	if q.jrn == nil || q.jrn.bytes < q.cfg.CompactBytes {
		return
	}
	if err := q.jrn.Compact(q.batches, q.jobs, q.now()); err != nil {
		q.log.Error("jobqueue compaction failed", "error", err)
	}
}

// Close drains the queue for graceful shutdown: workers stop claiming
// new jobs, running jobs get until ctx expires to finish (and are
// journaled as done/failed if they do), queued jobs stay queued in
// the journal for the next process. The journal is then closed.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	if q.closing {
		q.mu.Unlock()
		return ErrClosed
	}
	q.closing = true
	q.cond.Broadcast()
	q.mu.Unlock()
	close(q.sweepStop)

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: interrupt still-running executions. Their
		// journal records stay at "running", so replay re-queues them.
		err = ctx.Err()
		q.runStop()
		<-done
	}
	q.runStop()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.jrn != nil {
		if cerr := q.jrn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// crash abandons the queue without draining or journaling — the test
// hook that simulates a kill -9 for crash-recovery tests.
func (q *Queue) crash() {
	q.mu.Lock()
	if !q.closing {
		q.closing = true
		close(q.sweepStop)
	}
	q.cond.Broadcast()
	if q.jrn != nil {
		q.jrn.Close()
	}
	q.mu.Unlock()
	q.runStop()
	q.wg.Wait()
}
