package cluster_test

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"locmap/internal/cluster"
	"locmap/internal/server"
)

// newPeer serves locmapd's real peer plan API from a single-node
// server, the surface every Client talks to in cluster mode.
func newPeer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return ts
}

// peerDelete sends a raw DELETE, the one peer-API write the Client
// does not issue, and returns its status.
func peerDelete(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRemoteKVConformance runs the peer plan API's key-value contract
// over the wire against locmapd's real routes, through a Client for
// reads, writes and tier upgrades, and raw requests for deletes.
func TestRemoteKVConformance(t *testing.T) {
	ctx := context.Background()
	mk := func(t *testing.T) (*cluster.Client, string) {
		ts := newPeer(t)
		return cluster.NewClient(ts.URL, time.Second), ts.URL + cluster.PlanPath
	}
	get := func(t *testing.T, c *cluster.Client, key string) (cluster.PlanDoc, bool) {
		t.Helper()
		doc, ok, err := c.GetE(ctx, key)
		if err != nil {
			t.Fatalf("GetE(%q): %v", key, err)
		}
		return doc, ok
	}

	t.Run("MissOnEmpty", func(t *testing.T) {
		c, _ := mk(t)
		if _, ok := get(t, c, "absent"); ok {
			t.Fatal("GetE on an empty peer reported a hit")
		}
	})

	t.Run("PutGetRoundTrip", func(t *testing.T) {
		c, _ := mk(t)
		if !c.Put("k", cluster.PlanDoc{Payload: []byte("plan-1"), Tier: "estimate"}) {
			t.Error("first Put reported no insertion")
		}
		doc, ok := get(t, c, "k")
		if !ok || string(doc.Payload) != "plan-1" || doc.Tier != "estimate" {
			t.Fatalf("GetE = %+v, %v; want plan-1/estimate", doc, ok)
		}
	})

	t.Run("PutRefreshes", func(t *testing.T) {
		c, _ := mk(t)
		c.Put("k", cluster.PlanDoc{Payload: []byte("v1"), Tier: "estimate"})
		if c.Put("k", cluster.PlanDoc{Payload: []byte("v2"), Tier: "sim"}) {
			t.Error("refreshing Put reported an insertion")
		}
		doc, ok := get(t, c, "k")
		if !ok || string(doc.Payload) != "v2" || doc.Tier != "sim" {
			t.Fatalf("after refresh: %+v, %v", doc, ok)
		}
	})

	t.Run("UpgradeInPlace", func(t *testing.T) {
		c, _ := mk(t)
		c.Put("k", cluster.PlanDoc{Payload: []byte("analytical"), Tier: "estimate"})
		if c.Put("k", cluster.PlanDoc{Payload: []byte("checked"), Tier: "verified", Upgrade: true}) {
			t.Error("upgrade of a present key reported an insertion")
		}
		doc, ok := get(t, c, "k")
		if !ok || string(doc.Payload) != "checked" || doc.Tier != "verified" {
			t.Fatalf("after upgrade: %+v, %v", doc, ok)
		}
	})

	t.Run("UpgradeAbsentInserts", func(t *testing.T) {
		c, _ := mk(t)
		if !c.Put("gone", cluster.PlanDoc{Payload: []byte("checked"), Tier: "verified", Upgrade: true}) {
			t.Error("upgrade of a missing key reported no insertion")
		}
		doc, ok := get(t, c, "gone")
		if !ok || string(doc.Payload) != "checked" || doc.Tier != "verified" {
			t.Fatalf("upgrade-insert lost the value: %+v, %v", doc, ok)
		}
	})

	t.Run("Delete", func(t *testing.T) {
		c, base := mk(t)
		c.Put("k", cluster.PlanDoc{Payload: []byte("v")})
		if code := peerDelete(t, base+"k"); code != http.StatusNoContent {
			t.Fatalf("delete = %d, want 204", code)
		}
		if _, ok := get(t, c, "k"); ok {
			t.Error("deleted key still present")
		}
		if code := peerDelete(t, base+"never-existed"); code != http.StatusNoContent {
			t.Errorf("delete of an absent key = %d, want 204", code)
		}
		if !c.Put("k", cluster.PlanDoc{Payload: []byte("v2")}) {
			t.Error("re-Put after delete reported no insertion")
		}
	})

	t.Run("NoAliasing", func(t *testing.T) {
		c, _ := mk(t)
		v := []byte("original")
		c.Put("k", cluster.PlanDoc{Payload: v})
		v[0] = 'X' // caller mutates after Put
		doc, _ := get(t, c, "k")
		if string(doc.Payload) != "original" {
			t.Fatalf("Put aliased the caller's bytes: %q", doc.Payload)
		}
		doc.Payload[0] = 'Y' // caller mutates the returned slice
		if again, _ := get(t, c, "k"); string(again.Payload) != "original" {
			t.Fatalf("GetE aliased the stored bytes: %q", again.Payload)
		}
	})

	t.Run("EmptyAndUntiered", func(t *testing.T) {
		c, _ := mk(t)
		c.Put("k", cluster.PlanDoc{})
		doc, ok := get(t, c, "k")
		if !ok || len(doc.Payload) != 0 || doc.Tier != "" {
			t.Fatalf("empty entry round-trip = %+v, %v", doc, ok)
		}
	})

	t.Run("Concurrent", func(t *testing.T) {
		c, _ := mk(t)
		const goroutines = 8
		const ops = 30
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("key-%d", (g*ops+i)%40)
					switch i % 3 {
					case 0:
						c.Put(key, cluster.PlanDoc{Payload: []byte(key), Tier: "estimate"})
					case 1:
						if doc, ok, err := c.GetE(ctx, key); err != nil {
							t.Errorf("GetE(%q): %v", key, err)
						} else if ok && string(doc.Payload) != key {
							t.Errorf("GetE(%q) = %q", key, doc.Payload)
						}
					default:
						c.Put(key, cluster.PlanDoc{Payload: []byte(key), Tier: "verified", Upgrade: true})
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestClientDistinguishesMissFromFailure: GetE must separate "the
// owner does not have this plan" (proxy to it) from "the owner is
// unreachable" (degrade to local compute).
func TestClientDistinguishesMissFromFailure(t *testing.T) {
	ts := newPeer(t)
	c := cluster.NewClient(ts.URL, time.Second)

	if _, ok, err := c.GetE(context.Background(), "absent"); err != nil || ok {
		t.Fatalf("GetE on live peer without the key = ok=%v err=%v, want genuine miss", ok, err)
	}

	ts.Close()
	if _, ok, err := c.GetE(context.Background(), "absent"); err == nil || ok {
		t.Fatalf("GetE on dead peer = ok=%v err=%v, want an error", ok, err)
	}
}

// TestClientSwallowsPeerFailures: a Put the peer rejects or never
// receives is a no-op reported as no insertion, and OnError("put")
// observes each swallowed failure.
func TestClientSwallowsPeerFailures(t *testing.T) {
	ts := newPeer(t)
	c := cluster.NewClient(ts.URL, 200*time.Millisecond)
	var mu sync.Mutex
	var failed []string
	c.OnError = func(op string, err error) {
		if err == nil {
			t.Errorf("OnError(%q) called with nil error", op)
		}
		mu.Lock()
		failed = append(failed, op)
		mu.Unlock()
	}

	// The live peer answers 400: its routes accept only serving tiers.
	if c.Put("k", cluster.PlanDoc{Payload: []byte("v"), Tier: "bogus"}) {
		t.Error("rejected Put reported an insertion")
	}
	if _, ok, err := c.GetE(context.Background(), "k"); err != nil || ok {
		t.Errorf("rejected Put stored an entry: ok=%v err=%v", ok, err)
	}
	ts.Close()
	if c.Put("k", cluster.PlanDoc{Payload: []byte("v"), Tier: "static"}) {
		t.Error("Put against a dead peer reported an insertion")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(failed) != 2 || failed[0] != "put" || failed[1] != "put" {
		t.Errorf("OnError calls = %v, want [put put]", failed)
	}
}
