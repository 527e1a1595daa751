package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedExec executes like countingExec, but jobs whose fingerprint
// starts with "block" park until gate is closed (or the run context is
// cancelled).
func gatedExec(execs *sync.Map, gate chan struct{}) func(ctx context.Context, j *Job) ([]byte, bool, error) {
	inner := countingExec(execs)
	return func(ctx context.Context, j *Job) ([]byte, bool, error) {
		if strings.HasPrefix(j.Fingerprint, "block") {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		return inner(ctx, j)
	}
}

// awaitResult is one Await call's outcome, delivered over a channel by
// tests that run Await on their own goroutine.
type awaitResult struct {
	jobs []Job
	err  error
}

// parkBehindLeader occupies the only worker of q with a gated leader
// and submits a twin with the same fingerprint, then starts Await on
// the twin. Await claims the twin from the pending FIFO and the shared
// job body parks it behind the running leader. It returns the twin's
// id and the pending Await.
func parkBehindLeader(t *testing.T, ctx context.Context, q *Queue) (string, <-chan awaitResult) {
	t.Helper()
	if _, err := q.Submit("r", Spec{Kind: "map", Fingerprint: "block-twin"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leader running", func() bool { return q.Depth() == 0 })
	_, twins, err := q.SubmitBatch("r", []Spec{{Kind: "map", Fingerprint: "block-twin"}})
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan awaitResult, 1)
	go func() {
		jobs, err := q.Await(ctx, []string{twins[0].ID}, nil)
		ch <- awaitResult{jobs, err}
	}()
	waitFor(t, "twin parked", func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.waiterCount(PriorityBatch) == 1
	})
	select {
	case res := <-ch:
		t.Fatalf("Await returned while its job was parked: %+v", res)
	case <-time.After(20 * time.Millisecond):
	}
	return twins[0].ID, ch
}

// TestAwaitRunsChildrenOnOneWorker: an orchestrator holding the only
// pool worker submits two children and awaits them. Await runs the
// queued children on the orchestrator's goroutine, so the job
// completes instead of deadlocking, and onDone counts each child.
func TestAwaitRunsChildrenOnOneWorker(t *testing.T) {
	var execs sync.Map
	var qp atomic.Pointer[Queue]
	var reports []int
	exec := func(ctx context.Context, j *Job) ([]byte, bool, error) {
		if j.Kind != "orchestrate" {
			return countingExec(&execs)(ctx, j)
		}
		q := qp.Load()
		_, children, err := q.SubmitBatch(j.SubmitRequestID, []Spec{specN(101), specN(102)})
		if err != nil {
			return nil, false, err
		}
		got, err := q.Await(ctx, []string{children[0].ID, children[1].ID},
			func(done int) { reports = append(reports, done) })
		if err != nil {
			return nil, false, err
		}
		for _, c := range got {
			if c.State != StateDone {
				return nil, false, fmt.Errorf("child %s ended %s", c.ID, c.State)
			}
		}
		return []byte(`{"children":2}`), false, nil
	}
	q := mustOpen(t, Config{Workers: 1, Exec: exec})
	qp.Store(q)
	defer closeQueue(t, q)

	j, err := q.Submit("req", Spec{Kind: "orchestrate", Fingerprint: "orch-1"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "orchestrator completion", func() bool {
		got, ok := q.Job(j.ID)
		return ok && got.State.Terminal()
	})
	got, _ := q.Job(j.ID)
	if got.State != StateDone || string(got.Result) != `{"children":2}` {
		t.Fatalf("orchestrator ended %s: %s %s", got.State, got.Error, got.Result)
	}
	if execCount(&execs, "fp-101") != 1 || execCount(&execs, "fp-102") != 1 {
		t.Fatal("children did not each execute once")
	}
	if !reflect.DeepEqual(reports, []int{1, 2}) {
		t.Fatalf("onDone reported %v, want [1 2]", reports)
	}
}

// TestAwaitConcurrentOrchestrators: orchestrators on every pool worker
// await children that share one fingerprint. Each completes, and the
// shared child executes once across all of them.
func TestAwaitConcurrentOrchestrators(t *testing.T) {
	var execs sync.Map
	var qp atomic.Pointer[Queue]
	exec := func(ctx context.Context, j *Job) ([]byte, bool, error) {
		if j.Kind != "orchestrate" {
			return countingExec(&execs)(ctx, j)
		}
		var n int
		if err := json.Unmarshal(j.Request, &n); err != nil {
			return nil, false, err
		}
		q := qp.Load()
		_, children, err := q.SubmitBatch(j.SubmitRequestID, []Spec{specN(200), specN(201 + n)})
		if err != nil {
			return nil, false, err
		}
		got, err := q.Await(ctx, []string{children[0].ID, children[1].ID}, nil)
		if err != nil {
			return nil, false, err
		}
		for _, c := range got {
			if c.State != StateDone {
				return nil, false, fmt.Errorf("child %s ended %s", c.ID, c.State)
			}
		}
		return []byte(`{}`), false, nil
	}
	q := mustOpen(t, Config{Workers: 2, Exec: exec})
	qp.Store(q)
	defer closeQueue(t, q)

	const orchestrators = 4
	var ids []string
	for i := 0; i < orchestrators; i++ {
		j, err := q.Submit("req", Spec{Kind: "orchestrate", Fingerprint: fmt.Sprintf("orch-%d", i),
			Request: json.RawMessage(fmt.Sprint(i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	got, err := q.Await(context.Background(), ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range got {
		if j.State != StateDone {
			t.Fatalf("orchestrator %s ended %s: %s", j.ID, j.State, j.Error)
		}
	}
	if n := execCount(&execs, "fp-200"); n != 1 {
		t.Errorf("shared child executed %d times, want 1", n)
	}
	for i := 0; i < orchestrators; i++ {
		if n := execCount(&execs, fmt.Sprintf("fp-%d", 201+i)); n != 1 {
			t.Errorf("child fp-%d executed %d times, want 1", 201+i, n)
		}
	}
}

// TestAwaitWaitsForParkedTwin: a listed job parked behind a running
// twin is waited for, not run again, and completes from the twin's
// result.
func TestAwaitWaitsForParkedTwin(t *testing.T) {
	var execs sync.Map
	gate := make(chan struct{})
	q := mustOpen(t, Config{Workers: 1, Exec: gatedExec(&execs, gate)})
	defer closeQueue(t, q)

	_, ch := parkBehindLeader(t, context.Background(), q)
	close(gate)
	res := <-ch
	if res.err != nil {
		t.Fatal(res.err)
	}
	if j := res.jobs[0]; j.State != StateDone || !j.Cached || string(j.Result) != `{"fp":"block-twin"}` {
		t.Fatalf("parked twin = %+v", j)
	}
	if n := execCount(&execs, "block-twin"); n != 1 {
		t.Fatalf("fingerprint executed %d times, want 1", n)
	}
}

// TestAwaitReportsCancelledChild: a client cancelling a child Await is
// waiting for wakes it, and the child comes back cancelled.
func TestAwaitReportsCancelledChild(t *testing.T) {
	var execs sync.Map
	gate := make(chan struct{})
	q := mustOpen(t, Config{Workers: 1, Exec: gatedExec(&execs, gate)})
	defer closeQueue(t, q)
	defer close(gate)

	id, ch := parkBehindLeader(t, context.Background(), q)
	if _, err := q.Cancel(id); err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.jobs[0].State != StateCancelled {
		t.Fatalf("cancelled child came back %s", res.jobs[0].State)
	}
}

// TestAwaitContextCancel: cancelling the caller's context wakes Await
// and returns the context's error.
func TestAwaitContextCancel(t *testing.T) {
	var execs sync.Map
	gate := make(chan struct{})
	q := mustOpen(t, Config{Workers: 1, Exec: gatedExec(&execs, gate)})
	defer closeQueue(t, q)
	defer close(gate)

	ctx, cancel := context.WithCancel(context.Background())
	_, ch := parkBehindLeader(t, ctx, q)
	cancel()
	if res := <-ch; !errors.Is(res.err, context.Canceled) {
		t.Fatalf("Await after cancel: %+v, want context.Canceled", res)
	}
}

// TestReplayDetachedJournalAsBatch: a journal written while optimize
// jobs ran in a separate "detached" class replays its interrupted job
// as ordinary batch work, which a one-worker pool completes.
func TestReplayDetachedJournalAsBatch(t *testing.T) {
	dir := t.TempDir()
	journal := `{"v":1,"op":"batch","t":"2026-01-02T03:04:05Z","batch":{"id":"batch-opt","submitted_at":"2026-01-02T03:04:05Z","job_ids":["job-opt"]},"jobs":[{"kind":"optimize","fingerprint":"fp-opt","detached":true,"request":{"candidates":32},"id":"job-opt","batch_id":"batch-opt","state":"queued","submitted_at":"2026-01-02T03:04:05Z"}]}
{"v":1,"op":"state","t":"2026-01-02T03:04:06Z","id":"job-opt","state":"running"}
`
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	var execs sync.Map
	q := mustOpen(t, Config{Dir: dir, Workers: 1, Exec: countingExec(&execs)})
	defer closeQueue(t, q)

	waitFor(t, "replayed completion", func() bool {
		j, ok := q.Job("job-opt")
		return ok && j.State == StateDone
	})
	j, _ := q.Job("job-opt")
	if j.Priority != PriorityBatch || string(j.Request) != `{"candidates":32}` {
		t.Fatalf("replayed job = %+v", j)
	}
	if n := execCount(&execs, "fp-opt"); n != 1 {
		t.Fatalf("replayed job executed %d times, want 1", n)
	}
}

func TestSubmitCoalescesByFingerprint(t *testing.T) {
	var execs sync.Map
	gate := make(chan struct{})
	q := mustOpen(t, Config{Workers: 1, Exec: gatedExec(&execs, gate)})
	defer closeQueue(t, q)

	j1, err := q.Submit("r1", Spec{Kind: "optimize", Fingerprint: "block-opt"})
	if err != nil {
		t.Fatal(err)
	}
	// Same fingerprint while queued/running: coalesced to the same job.
	j2, err := q.Submit("r2", Spec{Kind: "optimize", Fingerprint: "block-opt"})
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != j2.ID {
		t.Fatalf("re-submission created a new job: %s vs %s", j1.ID, j2.ID)
	}
	close(gate)
	waitFor(t, "completion", func() bool {
		j, ok := q.Job(j1.ID)
		return ok && j.State == StateDone
	})
	// Same fingerprint once done: answered from the retained result.
	j3, err := q.Submit("r3", Spec{Kind: "optimize", Fingerprint: "block-opt"})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != j1.ID || j3.State != StateDone {
		t.Fatalf("post-completion re-submission: %+v", j3)
	}
	if n := execCount(&execs, "block-opt"); n != 1 {
		t.Fatalf("fingerprint executed %d times, want 1", n)
	}
}

// TestSubmitCrashRecoveryKeepsRequest: a submitted job interrupted
// mid-run by a crash is re-queued on replay with its request intact.
func TestSubmitCrashRecoveryKeepsRequest(t *testing.T) {
	dir := t.TempDir()
	var execs sync.Map
	gate := make(chan struct{})
	q := mustOpen(t, Config{Dir: dir, Workers: 1, Exec: gatedExec(&execs, gate)})

	j, err := q.Submit("req", Spec{Kind: "optimize", Fingerprint: "block-opt",
		Request: json.RawMessage(`{"candidates":200}`)})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool {
		got, ok := q.Job(j.ID)
		return ok && got.State == StateRunning
	})
	q.crash()

	q2 := mustOpen(t, Config{Dir: dir, Workers: 1, Exec: gatedExec(&execs, gate)})
	defer closeQueue(t, q2)
	close(gate)
	waitFor(t, "replayed completion", func() bool {
		got, ok := q2.Job(j.ID)
		return ok && got.State == StateDone
	})
	got, _ := q2.Job(j.ID)
	if string(got.Request) != `{"candidates":200}` {
		t.Fatalf("replayed job lost its spec: %+v", got)
	}
}

func TestListPaginationAndStateFilter(t *testing.T) {
	var execs sync.Map
	gate := make(chan struct{})
	q := mustOpen(t, Config{Workers: 1, Exec: gatedExec(&execs, gate)})
	defer closeQueue(t, q)
	defer close(gate)

	// Three jobs that finish, one that blocks running.
	if _, _, err := q.SubmitBatch("r", []Spec{specN(1), specN(2), specN(3)}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "batch drained", func() bool {
		done, _ := q.List(ListOptions{State: StateDone, Limit: 10})
		return len(done) == 3
	})
	if _, _, err := q.SubmitBatch("r", []Spec{{Kind: "map", Fingerprint: "block-x"}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool {
		run, _ := q.List(ListOptions{State: StateRunning, Limit: 10})
		return len(run) == 1
	})

	// Full listing: newest first, seq strictly descending.
	all, next := q.List(ListOptions{Limit: 10})
	if len(all) != 4 || next != 0 {
		t.Fatalf("List all = %d jobs, next %d; want 4, 0", len(all), next)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq >= all[i-1].Seq {
			t.Fatalf("listing not newest-first at %d", i)
		}
	}
	if all[0].Fingerprint != "block-x" {
		t.Fatalf("newest job is %s, want block-x", all[0].Fingerprint)
	}

	// Cursor walk with page size 3: 3 + 1.
	page1, cur := q.List(ListOptions{Limit: 3})
	if len(page1) != 3 || cur == 0 {
		t.Fatalf("page1 = %d jobs, cursor %d", len(page1), cur)
	}
	page2, cur2 := q.List(ListOptions{Limit: 3, Before: cur})
	if len(page2) != 1 || cur2 != 0 {
		t.Fatalf("page2 = %d jobs, cursor %d; want 1, 0", len(page2), cur2)
	}
	if page2[0].ID == page1[2].ID {
		t.Fatal("cursor did not advance")
	}

	// State filter.
	running, _ := q.List(ListOptions{State: StateRunning, Limit: 10})
	if len(running) != 1 || running[0].Fingerprint != "block-x" {
		t.Fatalf("running filter = %+v", running)
	}
	queued, _ := q.List(ListOptions{State: StateQueued, Limit: 10})
	if len(queued) != 0 {
		t.Fatalf("queued filter = %d jobs, want 0", len(queued))
	}
}

func TestSetProgress(t *testing.T) {
	var execs sync.Map
	gate := make(chan struct{})
	q := mustOpen(t, Config{Workers: 1, Exec: gatedExec(&execs, gate)})
	defer closeQueue(t, q)

	if err := q.SetProgress("nope", json.RawMessage(`{}`)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("SetProgress on unknown id: %v", err)
	}

	_, jobs, err := q.SubmitBatch("r", []Spec{{Kind: "map", Fingerprint: "block-p"}})
	if err != nil {
		t.Fatal(err)
	}
	id := jobs[0].ID
	waitFor(t, "running", func() bool {
		j, ok := q.Job(id)
		return ok && j.State == StateRunning
	})
	want := `{"phase":"search","evaluated":64}`
	if err := q.SetProgress(id, json.RawMessage(want)); err != nil {
		t.Fatal(err)
	}
	j, _ := q.Job(id)
	if string(j.Progress) != want {
		t.Fatalf("Progress = %s, want %s", j.Progress, want)
	}
	close(gate)
	waitFor(t, "done", func() bool {
		j, ok := q.Job(id)
		return ok && j.State == StateDone
	})
	j, _ = q.Job(id)
	if j.Progress != nil {
		t.Fatalf("terminal job kept progress: %s", j.Progress)
	}
	// Progress after completion is silently dropped.
	if err := q.SetProgress(id, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	if j, _ := q.Job(id); j.Progress != nil {
		t.Fatal("progress re-attached to a done job")
	}
}

func TestSubmitPoolJobCountsAgainstQueueLimit(t *testing.T) {
	var execs sync.Map
	gate := make(chan struct{})
	q := mustOpen(t, Config{Workers: 1, QueueLimit: 1, Exec: gatedExec(&execs, gate)})
	defer closeQueue(t, q)
	defer close(gate)

	if _, err := q.Submit("r", Spec{Kind: "map", Fingerprint: "block-1"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "running", func() bool { return q.Depth() == 0 })
	if _, err := q.Submit("r", Spec{Kind: "map", Fingerprint: "block-2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("r", Spec{Kind: "map", Fingerprint: "block-3"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit pool Submit: %v, want ErrQueueFull", err)
	}
}

func TestSubmitClosedQueue(t *testing.T) {
	q := mustOpen(t, Config{Workers: 1, Exec: countingExec(new(sync.Map))})
	closeQueue(t, q)
	if _, err := q.Submit("r", Spec{Kind: "map", Fingerprint: fmt.Sprintf("fp-%d", 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on closed queue: %v, want ErrClosed", err)
	}
}
