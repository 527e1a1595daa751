package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"locmap/internal/jobqueue"
)

// optSrc is the placement-search acceptance workload: a Figure 7-style
// mix of a streaming triad and an irregular gather, small enough that
// the verification simulations finish in test time but asymmetric
// enough that MC placement matters.
const optSrc = `
param N = 4096
param M = 8192
array A[N]
array B[N]
array C[N]
array X[M]
array IDX[N]
parallel for i = 0..N work 16 {
  A[i] = B[i] + C[i]
}
parallel for i = 0..N work 8 {
  C[i] = X[IDX[i]]
}
`

func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf []byte
	buf = make([]byte, 0, 4096)
	tmp := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			break
		}
	}
	return resp.StatusCode, buf
}

// pollOptimizeJob polls GET /v1/jobs/{id} until the job is terminal,
// recording whether any intermediate poll carried a progress payload.
func pollOptimizeJob(t *testing.T, base, id string, timeout time.Duration) (JobResponse, bool) {
	t.Helper()
	sawProgress := false
	deadline := time.Now().Add(timeout)
	for {
		code, body := getJSON(t, base+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll job: status %d: %s", code, body)
		}
		var jr JobResponse
		if err := json.Unmarshal(body, &jr); err != nil {
			t.Fatalf("decode job response: %v", err)
		}
		if len(jr.Progress) > 0 {
			sawProgress = true
		}
		if jr.State.Terminal() {
			return jr, sawProgress
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, jr.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func submitOptimize(t *testing.T, url string, req OptimizeRequest) OptimizeAck {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/optimize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/optimize: status %d: %s", resp.StatusCode, body)
	}
	var ack OptimizeAck
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatalf("decode ack: %v", err)
	}
	if ack.JobID == "" || ack.Kind != "optimize" || ack.Fingerprint == "" {
		t.Fatalf("incomplete ack: %+v", ack)
	}
	return ack
}

func decodeOptimizeResult(t *testing.T, jr JobResponse) OptimizeResult {
	t.Helper()
	if jr.State != jobqueue.StateDone {
		t.Fatalf("optimize job ended %s: %s", jr.State, jr.Error)
	}
	var res OptimizeResult
	if err := json.Unmarshal(jr.Result, &res); err != nil {
		t.Fatalf("decode optimize result: %v", err)
	}
	return res
}

// TestOptimizeEndToEnd is the acceptance test: /v1/optimize on a
// Figure 7-scale workload answers 202 immediately, evaluates at least
// 200 candidates through the estimate tier, runs the verification
// simulations as ordinary jobs visible in GET /v1/jobs, streams
// progress through GET /v1/jobs/{id}, and finds a placement whose
// verified (simulated) cycle count is never worse than the default
// interleaved chip's.
func TestOptimizeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real verification simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 4, RequestTimeout: 2 * time.Minute})
	ack := submitOptimize(t, ts.URL, OptimizeRequest{
		CommonRequest: CommonRequest{Source: optSrc, Seed: 1},
		Candidates:    200,
		TopK:          2,
	})
	if ack.Resolved.Mesh != "6x6" {
		t.Errorf("ack resolved mesh = %q", ack.Resolved.Mesh)
	}

	jr, sawProgress := pollOptimizeJob(t, ts.URL, ack.JobID, 2*time.Minute)
	res := decodeOptimizeResult(t, jr)
	if !sawProgress {
		t.Errorf("no poll of GET /v1/jobs/{id} ever carried a progress payload")
	}
	if res.Search.Evaluated < 200 {
		t.Errorf("search evaluated %d candidates, want >= 200", res.Search.Evaluated)
	}
	if res.Default.SimulatedCycles <= 0 {
		t.Fatalf("default chip has no simulated cycles: %+v", res.Default)
	}
	if res.Best.SimulatedCycles > res.Default.SimulatedCycles {
		t.Errorf("best placement %d simulated cycles, worse than default %d",
			res.Best.SimulatedCycles, res.Default.SimulatedCycles)
	}
	if res.Best.ImprovementPct < 0 {
		t.Errorf("best improvement %g%% negative", res.Best.ImprovementPct)
	}
	if len(res.Verified) != 2 {
		t.Errorf("verified %d survivors, want 2", len(res.Verified))
	}
	for _, vp := range append([]VerifiedPlacement{res.Default}, res.Verified...) {
		if vp.JobID == "" {
			t.Errorf("verification of %v has no job id", vp.Placement.MCs)
			continue
		}
		code, body := getJSON(t, ts.URL+"/v1/jobs/"+vp.JobID)
		if code != http.StatusOK {
			t.Errorf("child job %s not retrievable: %d", vp.JobID, code)
			continue
		}
		var cj JobResponse
		if err := json.Unmarshal(body, &cj); err != nil {
			t.Fatalf("decode child: %v", err)
		}
		if cj.Kind != "simulate" || cj.State != jobqueue.StateDone {
			t.Errorf("child %s: kind %q state %q", vp.JobID, cj.Kind, cj.State)
		}
	}

	// The whole workload is visible through the jobs listing: the
	// optimize job plus its three simulation children.
	code, body := getJSON(t, ts.URL+"/v1/jobs?limit=50")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %d: %s", code, body)
	}
	var list JobListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	kinds := map[string]int{}
	for _, j := range list.Jobs {
		kinds[j.Kind]++
	}
	if kinds["optimize"] != 1 || kinds["simulate"] != 3 {
		t.Errorf("listing kinds = %v, want 1 optimize + 3 simulate", kinds)
	}
}

// TestOptimizeDeterministicAcrossWorkers: a fixed seed must yield the
// identical search outcome and best placement at any pool width — the
// search is sequential and each simulation is a pure function of its
// request.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real verification simulations")
	}
	req := OptimizeRequest{
		CommonRequest: CommonRequest{Source: fastSrc, Seed: 9},
		Candidates:    64,
		TopK:          2,
	}
	run := func(cfg Config) OptimizeResult {
		_, ts := newTestServer(t, cfg)
		ack := submitOptimize(t, ts.URL, req)
		jr, _ := pollOptimizeJob(t, ts.URL, ack.JobID, 2*time.Minute)
		return decodeOptimizeResult(t, jr)
	}
	r1 := run(Config{Workers: 1, RequestTimeout: 2 * time.Minute})
	r2 := run(Config{Workers: 4, BatchWorkers: 2, RequestTimeout: 2 * time.Minute})

	s1, _ := json.Marshal(r1.Search)
	s2, _ := json.Marshal(r2.Search)
	if string(s1) != string(s2) {
		t.Errorf("search results differ across worker counts:\n%s\nvs\n%s", s1, s2)
	}
	b1, _ := json.Marshal(r1.Best.Placement)
	b2, _ := json.Marshal(r2.Best.Placement)
	if string(b1) != string(b2) {
		t.Errorf("best placements differ: %s vs %s", b1, b2)
	}
	if r1.Best.SimulatedCycles != r2.Best.SimulatedCycles {
		t.Errorf("best simulated cycles differ: %d vs %d",
			r1.Best.SimulatedCycles, r2.Best.SimulatedCycles)
	}
}

// TestOptimizeCoalesces: identical optimize requests share one job.
func TestOptimizeCoalesces(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real verification simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 2, RequestTimeout: 2 * time.Minute})
	req := OptimizeRequest{
		CommonRequest: CommonRequest{Source: fastSrc, Seed: 4},
		Candidates:    48,
		TopK:          1,
	}
	a1 := submitOptimize(t, ts.URL, req)
	a2 := submitOptimize(t, ts.URL, req)
	if a1.JobID != a2.JobID {
		t.Errorf("identical requests got distinct jobs: %s vs %s", a1.JobID, a2.JobID)
	}
	jr, _ := pollOptimizeJob(t, ts.URL, a1.JobID, 2*time.Minute)
	decodeOptimizeResult(t, jr)
}

// TestOptimizeValidationErrors: every rejected placement or knob
// answers 400 with the stable invalid_request envelope.
func TestOptimizeValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := CommonRequest{Source: fastSrc}
	tests := []struct {
		name string
		req  OptimizeRequest
	}{
		{"overlapping mcs", OptimizeRequest{CommonRequest: CommonRequest{
			Source: fastSrc, MCs: [][2]int{{0, 0}, {0, 0}, {5, 0}, {0, 5}}}}},
		{"mc outside mesh", OptimizeRequest{CommonRequest: CommonRequest{
			Source: fastSrc, MCs: [][2]int{{0, 0}, {9, 9}, {5, 0}, {0, 5}}}}},
		{"banks without shared llc", OptimizeRequest{CommonRequest: CommonRequest{
			Source: fastSrc, Banks: [][2]int{{1, 1}}}}},
		{"bank outside mesh", OptimizeRequest{CommonRequest: CommonRequest{
			Source: fastSrc, LLC: "shared", Banks: [][2]int{{6, 0}}}}},
		{"duplicate bank", OptimizeRequest{CommonRequest: CommonRequest{
			Source: fastSrc, LLC: "shared", Banks: [][2]int{{1, 1}, {1, 1}}}}},
		{"unknown sites", OptimizeRequest{CommonRequest: base, Sites: "bogus"}},
		{"negative candidates", OptimizeRequest{CommonRequest: base, Candidates: -1}},
		{"excessive candidates", OptimizeRequest{CommonRequest: base, Candidates: 1 << 30}},
		{"excessive top_k", OptimizeRequest{CommonRequest: base, TopK: 999}},
		{"negative timing iters", OptimizeRequest{CommonRequest: base, TimingIters: -1}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/optimize", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("not an error envelope: %v: %s", err, body)
			}
			if er.Error.Code != ErrInvalidRequest {
				t.Errorf("code %q, want %q (%s)", er.Error.Code, ErrInvalidRequest, er.Error.Message)
			}
			if er.Error.RequestID == "" {
				t.Errorf("envelope missing request id")
			}
		})
	}
}

// TestPlacementFieldsOnMap: the shared placement block works on the
// synchronous endpoints too — custom MCs change the fingerprint and
// are echoed in resolved.
func TestPlacementFieldsOnMap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := postJSON(t, ts.URL+"/v1/map", mapReq(fastSrc))
	def := decodeMapResponse(t, body)

	custom := mapReq(fastSrc)
	custom.MCs = [][2]int{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	_, body = postJSON(t, ts.URL+"/v1/map", custom)
	got := decodeMapResponse(t, body)
	if got.Fingerprint == def.Fingerprint {
		t.Errorf("custom MC placement shares the default fingerprint")
	}
	if len(got.Resolved.MCs) != 4 || got.Resolved.MCs[3] != [2]int{3, 0} {
		t.Errorf("resolved does not echo the custom placement: %+v", got.Resolved.MCs)
	}
	if len(def.Resolved.MCs) != 0 {
		t.Errorf("default request echoes explicit MCs: %+v", def.Resolved.MCs)
	}
}

// TestJobsListing: GET /v1/jobs pages newest-first with a stable
// cursor and filters by state; malformed query parameters answer 400.
func TestJobsListing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	var req BatchRequest
	for i := 0; i < 5; i++ {
		body, _ := json.Marshal(mapReq(fastSrc + fmt.Sprintf("# variant %d\n", i)))
		req.Jobs = append(req.Jobs, BatchJobSpec{Kind: "map", Request: body})
	}
	resp, body := postJSON(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		done, _ := s.Queue().List(jobqueue.ListOptions{State: jobqueue.StateDone, Limit: 10})
		if len(done) == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never drained: %d done", len(done))
		}
		time.Sleep(10 * time.Millisecond)
	}

	var all []JobStatus
	cursor := ""
	pages := 0
	for {
		url := ts.URL + "/v1/jobs?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		code, body := getJSON(t, url)
		if code != http.StatusOK {
			t.Fatalf("list: %d: %s", code, body)
		}
		var lr JobListResponse
		if err := json.Unmarshal(body, &lr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(lr.Jobs) > 2 {
			t.Fatalf("page has %d jobs, limit was 2", len(lr.Jobs))
		}
		all = append(all, lr.Jobs...)
		pages++
		if lr.NextCursor == "" {
			break
		}
		cursor = lr.NextCursor
	}
	if len(all) != 5 || pages != 3 {
		t.Errorf("paged %d jobs over %d pages, want 5 over 3", len(all), pages)
	}
	seen := map[string]bool{}
	for _, j := range all {
		if seen[j.JobID] {
			t.Errorf("job %s appeared on two pages", j.JobID)
		}
		seen[j.JobID] = true
	}

	code, body := getJSON(t, ts.URL+"/v1/jobs?state=done")
	if code != http.StatusOK {
		t.Fatalf("state filter: %d", code)
	}
	var lr JobListResponse
	if err := json.Unmarshal(body, &lr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(lr.Jobs) != 5 {
		t.Errorf("state=done listed %d jobs, want 5", len(lr.Jobs))
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs?state=bogus"); code != http.StatusBadRequest {
		t.Errorf("unknown state: %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs?limit=zero"); code != http.StatusBadRequest {
		t.Errorf("bad limit: %d, want 400", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs?cursor=-3"); code != http.StatusBadRequest {
		t.Errorf("bad cursor: %d, want 400", code)
	}
}
