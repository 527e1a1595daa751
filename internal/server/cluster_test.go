package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"locmap/internal/cluster"
	"locmap/internal/metrics"
)

// newClusterPair boots two servers that know each other as peers. The
// listeners are created first so each node's base URL exists before
// server.New needs it in Config.Peers.
func newClusterPair(t *testing.T) (sa, sb *Server, tsa, tsb *httptest.Server) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()
	peers := []string{urlA, urlB}

	mk := func(ln net.Listener, self string) (*Server, *httptest.Server) {
		s, err := New(Config{
			JournalDir: t.TempDir(),
			Peers:      peers,
			NodeID:     self,
			Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatalf("New(%s): %v", self, err)
		}
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Close(ctx)
		})
		return s, ts
	}
	sa, tsa = mk(lnA, urlA)
	sb, tsb = mk(lnB, urlB)
	return sa, sb, tsa, tsb
}

// TestClusterRoutesToOwner maps the same program via both nodes and
// verifies the plan is computed exactly once: the non-owner either
// proxies the cold request to the owner or serves the owner's cached
// plan as a remote hit, and a repeat against the non-owner hits its
// warmed local cache.
func TestClusterRoutesToOwner(t *testing.T) {
	sa, sb, tsa, tsb := newClusterPair(t)

	resp, body := postJSON(t, tsa.URL+"/v1/map", mapReq(triadSrc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map via A: %d %s", resp.StatusCode, body)
	}
	mrA := decodeMapResponse(t, body)
	if mrA.Cached {
		t.Fatalf("first request reported cached")
	}

	resp, body = postJSON(t, tsb.URL+"/v1/map", mapReq(triadSrc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map via B: %d %s", resp.StatusCode, body)
	}
	mrB := decodeMapResponse(t, body)
	if mrA.Fingerprint != mrB.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", mrA.Fingerprint, mrB.Fingerprint)
	}

	switch {
	case mrA.Cluster == nil:
		// A owns the fingerprint: B must have served A's cached plan.
		if mrB.Cluster == nil || !mrB.Cluster.RemoteHit || !mrB.Cached {
			t.Fatalf("B response not a remote hit: %+v", mrB.Cluster)
		}
		if got := sb.clusterRemoteHits.Value(); got != 1 {
			t.Errorf("B remote hits = %d, want 1", got)
		}
		// The remote hit warmed B's cache: a repeat stays local.
		_, body = postJSON(t, tsb.URL+"/v1/map", mapReq(triadSrc))
		if mr := decodeMapResponse(t, body); !mr.Cached || mr.Cluster != nil {
			t.Errorf("repeat via B not a local hit: cached=%v cluster=%+v", mr.Cached, mr.Cluster)
		}
	case mrA.Cluster.Proxied:
		// B owns it: A forwarded the cold request, so B computed and
		// cached, and a repeat against B is a plain local hit.
		if got := sa.clusterForwards.Value(); got != 1 {
			t.Errorf("A forwards = %d, want 1", got)
		}
		if mrB.Cluster != nil || !mrB.Cached {
			t.Errorf("owner B response not a local hit: cached=%v cluster=%+v", mrB.Cached, mrB.Cluster)
		}
	default:
		t.Fatalf("unexpected A routing outcome: %+v", mrA.Cluster)
	}
}

// TestClusterDegradesWhenPeerDown kills one node and checks the
// survivor still answers every request with 200 — peer-owned
// fingerprints are computed locally and flagged degraded, and the
// failures land in the peer-error counters instead of the client.
func TestClusterDegradesWhenPeerDown(t *testing.T) {
	sa, _, tsa, tsb := newClusterPair(t)
	tsb.Close()

	degraded := 0
	for i := 0; i < 8; i++ {
		src := fmt.Sprintf(`
param N = %d
array A[N]
array B[N]
parallel for i = 0..N work 32 {
  A[i] = B[i]
}
`, 1024<<i)
		resp, body := postJSON(t, tsa.URL+"/v1/map", mapReq(src))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("map %d via survivor: %d %s", i, resp.StatusCode, body)
		}
		mr := decodeMapResponse(t, body)
		if mr.Cluster != nil {
			if !mr.Cluster.Degraded {
				t.Errorf("peer-owned request %d not degraded: %+v", i, mr.Cluster)
			}
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatalf("no request hashed to the dead peer; widen the probe set")
	}
	if got := sa.clusterPeerErr["get"].Value(); got == 0 {
		t.Errorf("peer get errors = 0, want > 0 after %d degraded requests", degraded)
	}
}

// TestSingleNodePeerListStaysLocal: a peer list that collapses to one
// distinct member (or none) leaves cluster mode off.
func TestSingleNodePeerListStaysLocal(t *testing.T) {
	s, err := New(Config{
		JournalDir: t.TempDir(),
		Peers:      []string{"http://one:1/", " http://one:1", ""},
		NodeID:     "http://one:1",
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close(context.Background())
	if s.cluster != nil {
		t.Fatalf("single-member peer list enabled cluster mode")
	}

	if _, err := New(Config{
		JournalDir: t.TempDir(),
		Peers:      []string{"http://one:1", "http://two:2"},
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}); err == nil {
		t.Fatalf("missing NodeID accepted")
	}
	if _, err := New(Config{
		JournalDir: t.TempDir(),
		Peers:      []string{"http://one:1", "http://two:2"},
		NodeID:     "http://three:3",
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}); err == nil {
		t.Fatalf("NodeID outside Peers accepted")
	}
}

// TestClusterPlanAPI exercises the peer-facing plan endpoints directly:
// put, get, conditional upgrade, delete.
func TestClusterPlanAPI(t *testing.T) {
	_, ts := newTestServer(t, Config{JournalDir: t.TempDir()})
	base := ts.URL + "/v1/cluster/plan/abcd"

	resp, _ := httpDo(t, http.MethodGet, base)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get absent = %d, want 404", resp.StatusCode)
	}

	resp, body := postDoc(t, base, `{"payload":"eyJ4IjoxfQ==","tier":"static"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put = %d %s", resp.StatusCode, body)
	}

	resp, body = httpDo(t, http.MethodGet, base)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get = %d %s", resp.StatusCode, body)
	}

	// Upgrade on a present key must report inserted=false.
	resp, body = postDoc(t, base, `{"payload":"eyJ4IjoyfQ==","tier":"verified","upgrade":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upgrade = %d %s", resp.StatusCode, body)
	}
	if string(body) != `{"inserted":false}`+"\n" {
		t.Errorf("upgrade body = %q, want inserted=false", body)
	}

	resp, _ = httpDo(t, http.MethodDelete, base)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204", resp.StatusCode)
	}
	resp, _ = httpDo(t, http.MethodGet, base)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete = %d, want 404", resp.StatusCode)
	}
}

// TestClusterRejectsUnknownPeerTiers: a tier outside servingTiers
// never reaches a client or a metric label. A peer PUT carrying one is
// refused with 400 and stores nothing; a remote hit or a forwarded
// answer carrying one counts as a peer failure and degrades to local
// compute.
func TestClusterRejectsUnknownPeerTiers(t *testing.T) {
	_, ts := newTestServer(t, Config{JournalDir: t.TempDir()})
	base := ts.URL + "/v1/cluster/plan/abcd"
	resp, body := postDoc(t, base, `{"payload":"eyJ4IjoxfQ==","tier":"bogus-1"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("put with unknown tier = %d %s, want 400", resp.StatusCode, body)
	}
	if code := decodeErrorResponse(t, body).Code; code != ErrInvalidRequest {
		t.Errorf("put with unknown tier code = %q, want %q", code, ErrInvalidRequest)
	}
	if resp, _ := httpDo(t, http.MethodGet, base); resp.StatusCode != http.StatusNotFound {
		t.Errorf("get after rejected put = %d, want 404", resp.StatusCode)
	}

	// A misbehaving owner: its cache answers hitKey at tier bogus-1,
	// misses everything else, and answers every forward at bogus-2.
	var hitKey string
	owner := http.NewServeMux()
	owner.HandleFunc("GET /v1/cluster/plan/{fp}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("fp") != hitKey {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(cluster.PlanDoc{Payload: []byte(`{"x":1}`), Tier: "bogus-1"})
	})
	owner.HandleFunc("PUT /v1/cluster/plan/{fp}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(cluster.PutResult{Inserted: true})
	})
	owner.HandleFunc("POST /v1/map", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(MapResponse{Tier: "bogus-2", Plan: json.RawMessage(`{"x":1}`)})
	})
	// The peer starts serving once hitKey is set; its URL is known
	// from the listener before that.
	peer := httptest.NewUnstartedServer(owner)
	defer peer.Close()
	peerURL := "http://" + peer.Listener.Addr().String()

	// Nothing dials this node, so its own entry is only a ring member.
	self := "http://self.test:1"
	s, err := New(Config{
		JournalDir: t.TempDir(),
		Peers:      []string{self, peerURL},
		NodeID:     self,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close(context.Background())
	node := httptest.NewServer(s.Handler())
	defer node.Close()

	// Two sources the misbehaving peer owns: one remote hit, one
	// forward.
	var srcs []string
	for n := 1024; len(srcs) < 2; n += 64 {
		src := fmt.Sprintf("param N = %d\narray A[N]\narray B[N]\nparallel for i = 0..N work 32 {\n  A[i] = B[i]\n}\n", n)
		req := mapReq(src)
		sp, err := req.spec("map")
		if err != nil {
			t.Fatal(err)
		}
		key, err := sp.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if s.cluster.ring.Owner(key) == peerURL {
			if hitKey == "" {
				hitKey = key
			}
			srcs = append(srcs, src)
		}
	}
	peer.Start()
	for i, op := range []string{"get", "proxy"} {
		resp, body := postJSON(t, node.URL+"/v1/map", mapReq(srcs[i]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s case: map = %d %s", op, resp.StatusCode, body)
		}
		mr := decodeMapResponse(t, body)
		if mr.Tier != TierStatic || mr.Cached || mr.Cluster == nil || !mr.Cluster.Degraded {
			t.Errorf("%s case: tier=%q cached=%v cluster=%+v, want a degraded static compute",
				op, mr.Tier, mr.Cached, mr.Cluster)
		}
		if got := s.clusterPeerErr[op].Value(); got != 1 {
			t.Errorf("peer errors{op=%q} = %d, want 1", op, got)
		}
	}
	ms := httptest.NewServer(s.MetricsHandler())
	defer ms.Close()
	exp := scrape(t, ms.URL)
	for _, tier := range []string{"bogus-1", "bogus-2"} {
		if v, ok := exp.Value(tierServedName, metrics.Labels{"tier": tier}); ok {
			t.Errorf("%s{tier=%q} = %g, want no series", tierServedName, tier, v)
		}
	}
}

// TestClusterRemoteHitTiersUntieredEntry: a peer PUT may store an
// entry without a tier. Served through the other node as a remote hit,
// it must carry the endpoint's tier, as a local hit of an untiered
// entry does, and mint no empty-tier series.
func TestClusterRemoteHitTiersUntieredEntry(t *testing.T) {
	sa, sb, tsa, tsb := newClusterPair(t)
	req := mapReq(triadSrc)
	sp, err := req.spec("map")
	if err != nil {
		t.Fatal(err)
	}
	key, err := sp.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	owner, via, viaSrv := tsa, tsb, sb
	if sa.cluster.ring.Owner(key) != sa.cluster.self {
		owner, via, viaSrv = tsb, tsa, sa
	}
	if resp, body := postDoc(t, owner.URL+"/v1/cluster/plan/"+key, `{"payload":"eyJ4IjoxfQ=="}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("untiered put = %d %s, want 200", resp.StatusCode, body)
	}

	resp, body := postJSON(t, via.URL+"/v1/map", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("map via the non-owner = %d %s", resp.StatusCode, body)
	}
	mr := decodeMapResponse(t, body)
	if mr.Tier != TierStatic || !mr.Cached || mr.Cluster == nil || !mr.Cluster.RemoteHit {
		t.Errorf("tier=%q cached=%v cluster=%+v, want a cached static remote hit", mr.Tier, mr.Cached, mr.Cluster)
	}
	if string(mr.Plan) != `{"x":1}` {
		t.Errorf("plan = %s, want the owner's payload", mr.Plan)
	}

	ms := httptest.NewServer(viaSrv.MetricsHandler())
	defer ms.Close()
	exp := scrape(t, ms.URL)
	if v, ok := exp.Value(tierServedName, metrics.Labels{"tier": ""}); ok {
		t.Errorf("%s{tier=\"\"} = %g, want no series", tierServedName, v)
	}
	if v, _ := exp.Value(tierServedName, metrics.Labels{"tier": TierStatic}); v != 1 {
		t.Errorf("%s{tier=%q} = %g, want 1", tierServedName, TierStatic, v)
	}
}

func httpDo(t *testing.T, method, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

func postDoc(t *testing.T, url, doc string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(doc))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}
