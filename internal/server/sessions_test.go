package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"locmap/internal/metrics"
	"locmap/internal/tenancy"
)

func sessionReq(src, name string) SessionRequest {
	return SessionRequest{CommonRequest: CommonRequest{Source: src}, Name: name}
}

func createSession(t *testing.T, url, src, name string) SessionResponse {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/sessions", sessionReq(src, name))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d: %s", resp.StatusCode, body)
	}
	var sr SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("bad session response %s: %v", body, err)
	}
	return sr
}

func getPlan(t *testing.T, url, id string) SessionPlanResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/sessions/" + id + "/plan")
	if err != nil {
		t.Fatalf("GET plan: %v", err)
	}
	defer resp.Body.Close()
	var pr SessionPlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode plan: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET plan: status %d", resp.StatusCode)
	}
	return pr
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr := createSession(t, ts.URL, triadSrc, "life")
	if sr.SessionID == "" || sr.RequestID == "" {
		t.Fatalf("missing ids: %+v", sr)
	}
	if sr.Name != "life" || sr.Epoch != 0 || sr.Tier != "estimate" || sr.Tenants != 1 {
		t.Fatalf("created session = %+v", sr.SessionInfo)
	}
	if len(sr.Cores) != 0 {
		t.Fatalf("sole tenant got a core partition: %v", sr.Cores)
	}
	if sr.GroupKey == "" {
		t.Fatal("no group key")
	}

	// GET echoes the same state.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + sr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	var got SessionResponse
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || got.SessionID != sr.SessionID || got.Name != "life" {
		t.Fatalf("GET session: status %d, %+v", resp.StatusCode, got.SessionInfo)
	}

	// The list contains it.
	resp, err = http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list SessionListResponse
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Sessions) != 1 || list.Sessions[0].SessionID != sr.SessionID {
		t.Fatalf("list = %+v", list.Sessions)
	}

	// The plan carries the estimate payload and the register epoch.
	pr := getPlan(t, ts.URL, sr.SessionID)
	if pr.Plan.Tier != "estimate" || len(pr.Plan.Payload) == 0 {
		t.Fatalf("plan = %+v", pr.Plan)
	}
	var er EstimateResult
	if err := json.Unmarshal(pr.Plan.Payload, &er); err != nil {
		t.Fatalf("payload is not an EstimateResult: %v", err)
	}
	if er.Estimate == nil || er.Estimate.PredictedCycles <= 0 {
		t.Fatalf("degenerate estimate payload: %+v", er)
	}
	if len(pr.Epochs) != 1 || pr.Epochs[0].Reason != tenancy.ReasonRegister {
		t.Fatalf("epoch history = %+v", pr.Epochs)
	}

	// DELETE unregisters; subsequent reads 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sr.SessionID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var del SessionResponse
	json.NewDecoder(resp.Body).Decode(&del)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !del.Deleted || del.SessionID != sr.SessionID {
		t.Fatalf("DELETE: status %d, %+v", resp.StatusCode, del)
	}
	resp, err = http.Get(ts.URL + "/v1/sessions/" + sr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: status %d, want 404", resp.StatusCode)
	}
}

func TestSessionValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tests := []struct {
		name     string
		body     string
		want     int
		wantCode ErrorCode
	}{
		{"bad name chars", `{"source":"param N = 4","name":"has space"}`, http.StatusBadRequest, ErrInvalidRequest},
		{"name too long", `{"source":"param N = 4","name":"` + strings.Repeat("x", 65) + `"}`, http.StatusBadRequest, ErrInvalidRequest},
		{"empty source", `{"source":""}`, http.StatusBadRequest, ErrInvalidRequest},
		{"bad json", `{nope`, http.StatusBadRequest, ErrInvalidBody},
		{"unparsable source", `{"source":"for for for"}`, http.StatusUnprocessableEntity, ErrCompileFailed},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body := make([]byte, 4096)
			n, _ := resp.Body.Read(body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.want, body[:n])
			}
			if eb := decodeErrorResponse(t, body[:n]); eb.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", eb.Code, tc.wantCode)
			}
		})
	}

	// Telemetry validation on a real session.
	sr := createSession(t, ts.URL, triadSrc, "")
	for _, body := range []string{
		`{"alpha":1.5}`, `{"alpha":-0.1}`, `{"alpha":0.5,"l1_hit_fraction":2}`,
		`{"alpha":0.5,"cycles":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+sr.SessionID+"/telemetry",
			"application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4096)
		n, _ := resp.Body.Read(buf)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("telemetry %s: status = %d, want 400", body, resp.StatusCode)
			continue
		}
		if eb := decodeErrorResponse(t, buf[:n]); eb.Code != ErrInvalidRequest {
			t.Errorf("telemetry %s: code = %q", body, eb.Code)
		}
	}
}

func TestSessionNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	probes := []struct {
		method, path string
	}{
		{http.MethodGet, "/v1/sessions/s-0-0"},
		{http.MethodDelete, "/v1/sessions/s-0-0"},
		{http.MethodPost, "/v1/sessions/s-0-0/telemetry"},
		{http.MethodGet, "/v1/sessions/s-0-0/plan"},
	}
	for _, p := range probes {
		req, _ := http.NewRequest(p.method, ts.URL+p.path, strings.NewReader(`{"alpha":0.5}`))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 4096)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status = %d, want 404", p.method, p.path, resp.StatusCode)
			continue
		}
		if eb := decodeErrorResponse(t, body[:n]); eb.Code != ErrSessionNotFound {
			t.Errorf("%s %s: code = %q, want %q", p.method, p.path, eb.Code, ErrSessionNotFound)
		}
	}
}

func TestSessionMaxTenants(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxTenants: 1})
	createSession(t, ts.URL, triadSrc, "only")
	resp, body := postJSON(t, ts.URL+"/v1/sessions", sessionReq(triadSrc, "over"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, body)
	}
	if eb := decodeErrorResponse(t, body); eb.Code != ErrTooManySessions {
		t.Errorf("code = %q, want %q", eb.Code, ErrTooManySessions)
	}
}

// TestSessionCoPlacementTwoTenants: a second session on the same
// target machine re-partitions the mesh — both tenants get disjoint
// core partitions covering the chip, the first via a rebalance epoch —
// and deleting one hands the whole mesh back to the survivor.
func TestSessionCoPlacementTwoTenants(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := createSession(t, ts.URL, triadSrc, "tenant-a")
	b := createSession(t, ts.URL, triadSrc, "tenant-b")
	if a.GroupKey != b.GroupKey {
		t.Fatalf("same target resolved to different groups: %q vs %q", a.GroupKey, b.GroupKey)
	}
	if b.Tenants != 2 {
		t.Fatalf("second session sees %d tenants, want 2", b.Tenants)
	}

	pa, pb := getPlan(t, ts.URL, a.SessionID), getPlan(t, ts.URL, b.SessionID)
	if len(pa.Plan.Cores) == 0 || len(pb.Plan.Cores) == 0 {
		t.Fatalf("tenants not partitioned: a=%v b=%v", pa.Plan.Cores, pb.Plan.Cores)
	}
	// Disjoint partitions covering the default 6x6 mesh.
	seen := make(map[int]string)
	for _, c := range pa.Plan.Cores {
		seen[c] = "a"
	}
	for _, c := range pb.Plan.Cores {
		if seen[c] == "a" {
			t.Fatalf("core %d owned by both tenants", c)
		}
		seen[c] = "b"
	}
	if len(seen) != 36 {
		t.Fatalf("partitions cover %d of 36 cores", len(seen))
	}
	// The first session was re-placed by a rebalance epoch.
	if n := len(pa.Epochs); n < 2 || pa.Epochs[n-1].Reason != tenancy.ReasonRebalance {
		t.Fatalf("tenant-a history = %+v, want a trailing rebalance epoch", pa.Epochs)
	}
	// Identical workloads sharing every controller must interfere.
	if pa.Plan.Interference <= 0 {
		t.Errorf("interference = %g, want > 0 for co-tenants", pa.Plan.Interference)
	}

	// Delete b: a's next epoch returns the whole mesh.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+b.SessionID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	pa = getPlan(t, ts.URL, a.SessionID)
	if len(pa.Plan.Cores) != 0 || pa.Plan.Interference != 0 {
		t.Fatalf("survivor keeps a partition: %+v", pa.Plan)
	}
}

// TestSessionRemapEndToEnd is the tentpole acceptance test: drifting
// telemetry on a live session triggers a background remap epoch — the
// plan is re-estimated, verified by simulation, swapped atomically —
// and the swap is visible in the epoch history, the terminal job's
// progress summary and the per-tenant metric families.
func TestSessionRemapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a verification simulation")
	}
	s, ts := newTestServer(t, Config{RemapInterval: 100 * time.Millisecond})
	ms := httptest.NewServer(s.MetricsHandler())
	defer ms.Close()

	sr := createSession(t, ts.URL, triadSrc, "drifty")
	predicted := getPlan(t, ts.URL, sr.SessionID).Plan.PredictedAlpha

	// Outside the MinEpochGap hysteresis window the drift may trigger.
	time.Sleep(150 * time.Millisecond)

	// Push telemetry far from the prediction (drift ≥ 0.5, 5× the
	// default tolerance); the MinWindow floor is 3 observations.
	push := 0.0
	if predicted < 0.5 {
		push = 1.0
	}
	var tr TelemetryResponse
	for i := 0; i < 5 && !tr.RemapTriggered; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/sessions/"+sr.SessionID+"/telemetry",
			tenancy.Telemetry{Alpha: push})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("telemetry push %d: status %d: %s", i, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.RemapTriggered || tr.RemapJobID == "" {
		t.Fatalf("drifting telemetry never triggered a remap: %+v", tr)
	}
	if tr.Drift.Alpha < 0.5 {
		t.Errorf("drift at trigger = %g, want >= 0.5", tr.Drift.Alpha)
	}

	// The swap lands asynchronously; the job runs one estimate and one
	// verification simulation.
	deadline := time.Now().Add(60 * time.Second)
	var pr SessionPlanResponse
	for {
		pr = getPlan(t, ts.URL, sr.SessionID)
		if pr.Plan.Epoch >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("remap epoch never applied; plan %+v", pr.Plan)
		}
		time.Sleep(50 * time.Millisecond)
	}

	if pr.Plan.Tier != "verified" && pr.Plan.Tier != "refined" {
		t.Errorf("remapped tier = %q, want verified or refined", pr.Plan.Tier)
	}
	var drifted *tenancy.Epoch
	for i := range pr.Epochs {
		if pr.Epochs[i].Reason == tenancy.ReasonDrift {
			drifted = &pr.Epochs[i]
		}
	}
	if drifted == nil {
		t.Fatalf("no drift epoch in history: %+v", pr.Epochs)
	}
	if drifted.DriftAlpha < 0.5 {
		t.Errorf("drift epoch recorded α drift %g, want >= 0.5", drifted.DriftAlpha)
	}
	if drifted.RemapMs < 0 {
		t.Errorf("negative remap latency: %g", drifted.RemapMs)
	}
	// The payload was re-verified: it now carries a verification report.
	var er EstimateResult
	if err := json.Unmarshal(pr.Plan.Payload, &er); err != nil {
		t.Fatal(err)
	}
	if er.Verification == nil {
		t.Fatalf("remapped payload has no verification report")
	}
	// The drift baseline was recalibrated to the simulated α.
	if pr.Plan.PredictedAlpha != er.Verification.SimAlpha {
		t.Errorf("baseline α = %g, want simulated %g", pr.Plan.PredictedAlpha, er.Verification.SimAlpha)
	}

	// The terminal remap job retains its final progress summary.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + tr.RemapJobID)
	if err != nil {
		t.Fatal(err)
	}
	var jr JobResponse
	json.NewDecoder(resp.Body).Decode(&jr)
	resp.Body.Close()
	if jr.State != "done" {
		t.Fatalf("remap job state = %q: %+v", jr.State, jr.JobStatus)
	}
	var summary map[string]any
	if err := json.Unmarshal(jr.ProgressSummary, &summary); err != nil {
		t.Fatalf("terminal job has no progress summary: %v (%s)", err, jr.ProgressSummary)
	}
	if summary["phase"] != "done" {
		t.Errorf("progress summary phase = %v, want done: %s", summary["phase"], jr.ProgressSummary)
	}

	// Per-tenant SLO families expose the epoch.
	exp := scrape(t, ms.URL)
	lbl := metrics.Labels{"session": "drifty"}
	if v, ok := exp.Value("locmapd_session_epochs_total", lbl); !ok || v < 2 {
		t.Errorf("session_epochs_total = %g, %v; want >= 2 (register + remap)", v, ok)
	}
	if v, ok := exp.Value("locmapd_session_drift_at_trigger", lbl); !ok || v < 0.5 {
		t.Errorf("session_drift_at_trigger = %g, %v; want >= 0.5", v, ok)
	}
	if v, ok := exp.Value("locmapd_session_remap_latency_seconds_count", lbl); !ok || v < 1 {
		t.Errorf("remap latency histogram count = %g, %v; want >= 1", v, ok)
	}
	if _, ok := exp.Value("locmapd_session_interference_score", lbl); !ok {
		t.Errorf("session_interference_score missing")
	}
	if v, ok := exp.Value("locmapd_sessions_active", nil); !ok || v != 1 {
		t.Errorf("sessions_active = %g, %v; want 1", v, ok)
	}
}

// TestSessionPlanConcurrentReads hammers GET .../plan while rebalance
// epochs swap the plan; every response must be internally consistent
// (the served epoch matches an entry of its own history). Run under
// -race this also exercises the lock-free plan pointer end to end.
func TestSessionPlanConcurrentReads(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sr := createSession(t, ts.URL, triadSrc, "swappy")
	sess, ok := s.tenants.Get(sr.SessionID)
	if !ok {
		t.Fatal("session vanished")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pr := getPlan(t, ts.URL, sr.SessionID)
				if pr.Plan.Epoch >= len(pr.Epochs) {
					t.Errorf("plan epoch %d outside history of %d", pr.Plan.Epoch, len(pr.Epochs))
					return
				}
				ep := pr.Epochs[pr.Plan.Epoch]
				if ep.Tier != pr.Plan.Tier {
					t.Errorf("served plan tier %q, history says %q", pr.Plan.Tier, ep.Tier)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		cores := []int{i % 36}
		if !s.tenants.BeginRebalance(sess) {
			t.Fatal("rebalance latch unavailable")
		}
		s.tenants.CompleteRemap(sess, tenancy.ReasonRebalance, tenancy.Drift{},
			tenancy.Plan{Tier: "estimate", Cores: cores})
	}
	close(stop)
	wg.Wait()
}

// TestStatsQueueDepthsAndSessions: /v1/stats exposes the per-class
// queue depths and the active session count, and no key beyond the
// set API.md documents.
func TestStatsQueueDepthsAndSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createSession(t, ts.URL, triadSrc, "counted")

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var depths QueueDepths
	if err := json.Unmarshal(raw["jobqueue"], &depths); err != nil {
		t.Fatalf("stats payload has no jobqueue depths: %v", err)
	}
	if depths.Batch < 0 || depths.Background < 0 {
		t.Errorf("negative queue depths: %+v", depths)
	}
	var active int
	if err := json.Unmarshal(raw["active_sessions"], &active); err != nil {
		t.Fatalf("stats payload has no active_sessions: %v", err)
	}
	if active != 1 {
		t.Errorf("active_sessions = %d, want 1", active)
	}
	documented := map[string]bool{
		"uptime_seconds": true, "requests": true, "errors": true,
		"rejects": true, "timeouts": true, "workers": true,
		"inflight": true, "cache": true, "latency_count": true,
		"latency_p50_ms": true, "latency_p99_ms": true,
		"jobqueue": true, "active_sessions": true,
	}
	for key := range raw {
		if !documented[key] {
			t.Errorf("stats payload has undocumented key %q", key)
		}
	}
}
