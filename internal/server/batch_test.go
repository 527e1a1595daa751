package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"locmap/internal/jobqueue"
	"locmap/internal/metrics"
)

// batchBody builds a POST /v1/batch body of map jobs over sources.
func batchBody(kinds []string, sources []string) BatchRequest {
	req := BatchRequest{}
	for i, src := range sources {
		req.Jobs = append(req.Jobs, BatchJobSpec{
			Kind:    kinds[i],
			Request: json.RawMessage(fmt.Sprintf(`{"source":%q}`, src)),
		})
	}
	return req
}

// pollBatch polls GET /v1/batch/{id} until every job is terminal.
func pollBatch(t *testing.T, base, id string) BatchStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/batch/" + id)
		if err != nil {
			t.Fatalf("GET batch: %v", err)
		}
		var bs BatchStatusResponse
		err = json.NewDecoder(resp.Body).Decode(&bs)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode batch status: %v", err)
		}
		if bs.Done {
			return bs
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s never finished: %+v", id, bs.Counts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchSubmitPollComplete is the batch-API acceptance test: submit
// a mixed map/simulate batch, poll to completion, and get back
// decodable results with full request-id provenance.
func TestBatchSubmitPollComplete(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	body, _ := json.Marshal(batchBody([]string{"map", "simulate"}, []string{triadSrc, triadSrc}))
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "batch-submit-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	var sub BatchSubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if sub.RequestID != "batch-submit-7" || sub.BatchID == "" || len(sub.Jobs) != 2 {
		t.Fatalf("submit response = %+v", sub)
	}
	for i, j := range sub.Jobs {
		if j.JobID == "" || j.Fingerprint == "" || j.State != jobqueue.StateQueued {
			t.Errorf("ack %d = %+v", i, j)
		}
	}
	if sub.Jobs[0].Fingerprint == sub.Jobs[1].Fingerprint {
		t.Error("map and simulate jobs share a fingerprint")
	}

	bs := pollBatch(t, ts.URL, sub.BatchID)
	if bs.SubmitRequestID != "batch-submit-7" {
		t.Errorf("batch submit_request_id = %q", bs.SubmitRequestID)
	}
	if bs.Counts[jobqueue.StateDone] != 2 {
		t.Fatalf("counts = %+v, want 2 done", bs.Counts)
	}
	if len(bs.Counts) != len(jobqueue.States) {
		t.Errorf("counts has %d keys, want all %d states", len(bs.Counts), len(jobqueue.States))
	}

	// Each job is also individually retrievable, with the originating
	// request id persisted and this poll's own id echoed separately.
	for i, ack := range sub.Jobs {
		r, err := http.Get(ts.URL + "/v1/jobs/" + ack.JobID)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var jr JobResponse
		err = json.NewDecoder(r.Body).Decode(&jr)
		r.Body.Close()
		if err != nil {
			t.Fatalf("decode job: %v", err)
		}
		if jr.State != jobqueue.StateDone || len(jr.Result) == 0 {
			t.Fatalf("job %d = %+v", i, jr.JobStatus)
		}
		if jr.SubmitRequestID != "batch-submit-7" {
			t.Errorf("job %d submit_request_id = %q, want the submitting id", i, jr.SubmitRequestID)
		}
		if jr.RequestID == "" || jr.RequestID == "batch-submit-7" {
			t.Errorf("job %d poll request id = %q, want a fresh id", i, jr.RequestID)
		}
		if jr.StartedAt == nil || jr.FinishedAt == nil {
			t.Errorf("job %d missing timestamps", i)
		}
		switch ack.Kind {
		case "map":
			var plan Plan
			if err := json.Unmarshal(jr.Result, &plan); err != nil || len(plan.Schedule) == 0 {
				t.Errorf("map result does not decode to a plan: %v", err)
			}
		case "simulate":
			var sr SimResult
			if err := json.Unmarshal(jr.Result, &sr); err != nil || sr.LocmapCycles <= 0 {
				t.Errorf("simulate result does not decode: %v", err)
			}
		}
	}
}

// TestBatchAndSyncShareTheCache: a synchronous result completes an
// identical batch job without re-executing, and a batch result makes
// the identical synchronous request a cache hit.
func TestBatchAndSyncShareTheCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})

	// Sync first: the batch twin must be served from the plan cache.
	resp, syncBody := postJSON(t, ts.URL+"/v1/map", mapReq(triadSrc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync map: %d", resp.StatusCode)
	}
	syncPlan := decodeMapResponse(t, syncBody).Plan

	resp, body := postJSON(t, ts.URL+"/v1/batch", batchBody([]string{"map"}, []string{triadSrc}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d: %s", resp.StatusCode, body)
	}
	var sub BatchSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	bs := pollBatch(t, ts.URL, sub.BatchID)
	if !bs.Jobs[0].Cached {
		t.Error("batch twin of a sync result not marked cached")
	}
	if !bytes.Equal(bs.Jobs[0].Result, syncPlan) {
		t.Error("batch result differs from the sync plan")
	}

	// Batch first for a new program: the sync twin must hit the cache.
	src2 := strings.Replace(triadSrc, "16384", "8192", 1)
	resp, body = postJSON(t, ts.URL+"/v1/batch", batchBody([]string{"map"}, []string{src2}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	bs = pollBatch(t, ts.URL, sub.BatchID)
	if bs.Jobs[0].Cached {
		t.Error("fresh batch job claims to be cached")
	}
	resp, body = postJSON(t, ts.URL+"/v1/map", mapReq(src2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync map after batch: %d", resp.StatusCode)
	}
	if mr := decodeMapResponse(t, body); !mr.Cached {
		t.Error("sync request after an identical batch job missed the cache")
	}
}

// TestBatchCancelOverHTTP: DELETE /v1/jobs/{id} cancels a queued job.
func TestBatchCancelOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, BatchWorkers: 1,
		RequestTimeout: 300 * time.Millisecond})

	// Hold the only compute slot so the first batch job blocks inside
	// runJob and the second stays queued behind the one batch worker.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	src2 := strings.Replace(triadSrc, "16384", "4096", 1)
	resp, body := postJSON(t, ts.URL+"/v1/batch", batchBody([]string{"map", "map"}, []string{triadSrc, src2}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d: %s", resp.StatusCode, body)
	}
	var sub BatchSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	// Wait until the worker claims the first job, so the second is
	// deterministically still queued.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := s.queue.Job(sub.Jobs[0].JobID)
		if ok && j.State == jobqueue.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first batch job never started (state %s)", j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.Jobs[1].JobID, nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	var jr JobResponse
	err = json.NewDecoder(resp2.Body).Decode(&jr)
	resp2.Body.Close()
	if err != nil {
		t.Fatalf("decode cancel response: %v", err)
	}
	if resp2.StatusCode != http.StatusOK || jr.State != jobqueue.StateCancelled {
		t.Fatalf("cancel = %d, %+v", resp2.StatusCode, jr.JobStatus)
	}
}

// TestBatchDurableRestart: a graceful shutdown persists finished batch
// work; a new server over the same journal directory serves the old
// results, and the replay warms its plan cache.
func TestBatchDurableRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 4, JournalDir: dir})

	resp, body := postJSON(t, ts1.URL+"/v1/batch", batchBody([]string{"map"}, []string{triadSrc}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d: %s", resp.StatusCode, body)
	}
	var sub BatchSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	bs := pollBatch(t, ts1.URL, sub.BatchID)
	origResult := bs.Jobs[0].Result
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("close first server: %v", err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 4, JournalDir: dir})
	bs2 := pollBatch(t, ts2.URL, sub.BatchID)
	if bs2.Counts[jobqueue.StateDone] != 1 {
		t.Fatalf("restarted counts = %+v", bs2.Counts)
	}
	if !bytes.Equal(bs2.Jobs[0].Result, origResult) {
		t.Error("result changed across restart")
	}
	if bs2.Jobs[0].SubmitRequestID == "" {
		t.Error("submit request id lost across restart")
	}

	// The replayed result warmed the new process's plan cache: the
	// identical synchronous request is a hit, observable in the
	// replay-warm counter.
	resp, body = postJSON(t, ts2.URL+"/v1/map", mapReq(triadSrc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync map after restart: %d", resp.StatusCode)
	}
	if mr := decodeMapResponse(t, body); !mr.Cached {
		t.Error("replayed batch result did not warm the plan cache")
	}
	ms := httptest.NewServer(s2.MetricsHandler())
	defer ms.Close()
	exp := scrape(t, ms.URL)
	if v, ok := exp.Value("locmapd_plancache_replay_warms_total", nil); !ok || v != 1 {
		t.Errorf("replay warms = %g, %v; want 1", v, ok)
	}
	if v, ok := exp.Value("locmapd_jobqueue_replay_seconds", nil); !ok || v <= 0 {
		t.Errorf("replay seconds = %g, %v; want > 0", v, ok)
	}
}

// TestReplayWarmsOnlyCachedKinds: journal replay warms the plan cache
// with exactly what the live path caches. An optimize search's simulate
// children are warmed; its own result, which the live path never
// caches, stays out, so the peer plan API cannot serve it.
func TestReplayWarmsOnlyCachedKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real verification simulations")
	}
	dir := t.TempDir()
	cfg := Config{Workers: 2, JournalDir: dir, RequestTimeout: 2 * time.Minute}
	s1, ts1 := newTestServer(t, cfg)
	ack := submitOptimize(t, ts1.URL, OptimizeRequest{
		CommonRequest: CommonRequest{Source: fastSrc, Seed: 4},
		Candidates:    48,
		TopK:          1,
	})
	jr, _ := pollOptimizeJob(t, ts1.URL, ack.JobID, 2*time.Minute)
	decodeOptimizeResult(t, jr)
	if _, ok := s1.cache.Get(ack.Fingerprint); ok {
		t.Fatal("the live path cached an optimize result")
	}
	done, _ := s1.Queue().List(jobqueue.ListOptions{State: jobqueue.StateDone, Limit: 100})
	children := map[string]bool{}
	for _, j := range done {
		if j.Kind == "simulate" {
			children[j.Fingerprint] = true
		}
	}
	if len(children) == 0 {
		t.Fatal("optimize ran no simulate children")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Close(ctx); err != nil {
		t.Fatalf("close first server: %v", err)
	}

	s2, ts2 := newTestServer(t, cfg)
	if code, body := getJSON(t, ts2.URL+"/v1/cluster/plan/"+ack.Fingerprint); code != http.StatusNotFound {
		t.Errorf("peer GET of the optimize fingerprint after restart = %d %s, want 404", code, body)
	}
	for fp := range children {
		if _, ok := s2.cache.Get(fp); !ok {
			t.Errorf("simulate child %s not warmed by replay", fp)
		}
	}
	ms := httptest.NewServer(s2.MetricsHandler())
	defer ms.Close()
	if v, ok := scrape(t, ms.URL).Value("locmapd_plancache_replay_warms_total", nil); !ok || v != float64(len(children)) {
		t.Errorf("replay warms = %g, %v; want %d (the simulate children)", v, ok, len(children))
	}
}

// TestBatchMetricsConsistency: the jobqueue metric families agree with
// the work actually performed — including the dedup counter when a
// batch carries same-fingerprint twins.
func TestBatchMetricsConsistency(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, JournalDir: t.TempDir()})
	ms := httptest.NewServer(s.MetricsHandler())
	defer ms.Close()

	src2 := strings.Replace(triadSrc, "16384", "2048", 1)
	resp, body := postJSON(t, ts.URL+"/v1/batch",
		batchBody([]string{"map", "map", "map"}, []string{triadSrc, triadSrc, src2}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d: %s", resp.StatusCode, body)
	}
	var sub BatchSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Jobs[0].Fingerprint != sub.Jobs[1].Fingerprint {
		t.Fatal("identical specs got different fingerprints")
	}
	pollBatch(t, ts.URL, sub.BatchID)

	exp := scrape(t, ms.URL)
	expectValue := func(fam string, labels metrics.Labels, want float64) {
		t.Helper()
		if v, ok := exp.Value(fam, labels); !ok || v != want {
			t.Errorf("%s%v = %g, %v; want %g", fam, labels, v, ok, want)
		}
	}
	expectValue("locmapd_jobqueue_depth", metrics.Labels{"priority": "batch"}, 0)
	expectValue("locmapd_jobqueue_depth", metrics.Labels{"priority": "background"}, 0)
	expectValue("locmapd_jobqueue_transitions_total", metrics.Labels{"state": "queued"}, 3)
	expectValue("locmapd_jobqueue_transitions_total", metrics.Labels{"state": "done"}, 3)
	expectValue("locmapd_jobqueue_jobs", metrics.Labels{"state": "done"}, 3)
	expectValue("locmapd_jobqueue_jobs", metrics.Labels{"state": "queued"}, 0)
	expectValue("locmapd_jobqueue_dedup_total", nil, 1)
	if v, ok := exp.Value("locmapd_jobqueue_journal_records_total", nil); !ok || v < 4 {
		t.Errorf("journal records = %g, %v; want >= 4 (1 batch + transitions)", v, ok)
	}
	if v, ok := exp.Value("locmapd_jobqueue_journal_bytes", nil); !ok || v <= 0 {
		t.Errorf("journal bytes = %g, %v; want > 0", v, ok)
	}
}
