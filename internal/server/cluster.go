package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	"locmap/internal/cluster"
	"locmap/internal/metrics"
)

// Cluster mode: every node carries the same static peer list, a
// consistent-hash ring over it assigns each canonical fingerprint an
// owning node, and plan-cache state for a fingerprint concentrates on
// its owner. A request arriving at a non-owner first asks the owner's
// cache (remote hit), then forwards the whole request to the owner
// (so the owner computes, caches, and runs the tier lifecycle), and
// only when the owner is unreachable computes locally — publishing
// the result back to the owner once it returns. Peers are an
// optimization, never a dependency: no peer failure is ever surfaced
// to a client as an error.

// forwardedHeader marks a proxied peer request so the owner serves it
// locally instead of re-forwarding (loop guard; with a consistent
// static membership a loop cannot form, but a misconfigured peer list
// must degrade to double compute, not to a forwarding cycle).
const forwardedHeader = "X-Locmap-Forwarded"

// ClusterInfo is the cluster routing block attached to a MapResponse
// served by a clustered node on a path that consulted the ring.
type ClusterInfo struct {
	// Self and Owner are this node's and the owning node's base URLs.
	Self  string `json:"self"`
	Owner string `json:"owner"`

	// RemoteHit: the plan came from the owner's cache.
	RemoteHit bool `json:"remote_hit,omitempty"`

	// Proxied: the whole request was forwarded to the owner and this
	// is its (re-entitled) response.
	Proxied bool `json:"proxied,omitempty"`

	// Degraded: the owner was unreachable, so this node computed the
	// plan itself.
	Degraded bool `json:"degraded,omitempty"`

	// Published: the locally computed plan was written through to the
	// owner's cache.
	Published bool `json:"published,omitempty"`

	// publish (unexported, never serialized) tells the compute path
	// whether a write-through to the owner should be attempted.
	publish bool
}

// clusterState is the per-server cluster wiring; nil on a single-node
// server.
type clusterState struct {
	self    string
	ring    *cluster.Ring
	clients map[string]*cluster.Client
	timeout time.Duration
}

// registerClusterMetrics eagerly creates the cluster metric families —
// also on single-node servers, so the /metrics scrape contract does
// not depend on deployment shape.
func (s *Server) registerClusterMetrics() {
	s.clusterForwards = s.reg.Counter("locmapd_cluster_forwards_total",
		"Requests forwarded whole to their fingerprint's owning node.", nil)
	s.clusterRemoteHits = s.reg.Counter("locmapd_cluster_remote_hits_total",
		"Requests served from the owning node's plan cache.", nil)
	s.clusterPeerErr = make(map[string]*metrics.Counter, len(clusterPeerOps))
	for _, op := range clusterPeerOps {
		s.clusterPeerErr[op] = s.reg.Counter("locmapd_cluster_peer_errors_total",
			"Peer operations swallowed into local fallbacks, by operation.",
			metrics.Labels{"op": op})
	}
}

// clusterPeerOps are the label values of
// locmapd_cluster_peer_errors_total: the remote cache reads ("get"),
// write-through publishes and lifecycle writes ("put"), cache
// invalidations ("delete"), and whole-request forwards ("proxy").
var clusterPeerOps = []string{"get", "put", "delete", "proxy"}

func (s *Server) peerErr(op string, err error) {
	if c, ok := s.clusterPeerErr[op]; ok {
		c.Inc()
	}
	s.log.Warn("cluster peer operation failed", "op", op, "error", err)
}

// initCluster validates Config.Peers/NodeID and builds the ring and
// peer clients. A peer list with fewer than two distinct members
// leaves the server in single-node mode.
func (s *Server) initCluster() error {
	peers := make([]string, 0, len(s.cfg.Peers))
	for _, p := range s.cfg.Peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
			peers = append(peers, p)
		}
	}
	if len(peers) == 0 {
		return nil
	}
	self := strings.TrimRight(strings.TrimSpace(s.cfg.NodeID), "/")
	if self == "" {
		return fmt.Errorf("server: cluster mode needs NodeID (this node's entry in Peers)")
	}
	ring := cluster.NewRing(peers, 0)
	found := false
	for _, n := range ring.Nodes() {
		if n == self {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("server: NodeID %q is not in Peers %v", self, ring.Nodes())
	}
	if ring.Len() < 2 {
		return nil // only ourselves: single-node
	}
	cs := &clusterState{
		self:    self,
		ring:    ring,
		clients: make(map[string]*cluster.Client, ring.Len()-1),
		timeout: s.cfg.ClusterTimeout,
	}
	for _, n := range ring.Nodes() {
		if n == self {
			continue
		}
		c := cluster.NewClient(n, cs.timeout)
		c.OnError = s.peerErr
		cs.clients[n] = c
	}
	s.cluster = cs
	s.log.Info("cluster mode enabled", "self", self, "peers", ring.Nodes())
	return nil
}

// clusterRespond runs the cluster path after a local cache miss on
// key. It reports handled=true when it already wrote the response (a
// remote cache hit on the owner, or the whole request proxied there).
// Otherwise the caller computes locally and attaches the returned
// ClusterInfo (nil outside cluster mode / for self-owned keys) to its
// response, calling clusterPublish with it afterwards. tier is the
// endpoint's fresh tier: as on a local hit, it stands in for the tier
// of an owner's entry stored without one.
func (s *Server) clusterRespond(w http.ResponseWriter, r *http.Request, req any, endpoint, key, tier string, resp *MapResponse) (bool, *ClusterInfo) {
	cs := s.cluster
	if cs == nil || r.Header.Get(forwardedHeader) != "" {
		return false, nil
	}
	owner := cs.ring.Owner(key)
	if owner == cs.self {
		return false, nil
	}
	ci := &ClusterInfo{Self: cs.self, Owner: owner}
	client := cs.clients[owner]

	entry, ok, err := client.GetE(r.Context(), key)
	if err == nil && ok && !peerTierOK(entry.Tier) {
		err = fmt.Errorf("owner's plan has unknown tier %q", entry.Tier)
	}
	if err != nil {
		// The owner is unreachable or misbehaving: degrade to local
		// compute and do not burn another timeout trying to publish
		// to it.
		s.peerErr("get", err)
		ci.Degraded = true
		return false, ci
	}
	if ok {
		s.clusterRemoteHits.Inc()
		ci.RemoteHit = true
		// Warm the local cache so repeats hit without a network hop.
		s.cache.PutTier(key, entry.Payload, entry.Tier)
		if info := infoFromContext(r.Context()); info != nil {
			info.cached = true // the access log agrees with the envelope
		}
		resp.Cached = true
		resp.Cluster = ci
		resp.Tier = entry.Tier
		if resp.Tier == "" {
			resp.Tier = tier
		}
		resp.Plan = entry.Payload
		s.observeTier(resp.Tier)
		s.writeJSON(w, http.StatusOK, *resp)
		return true, ci
	}

	// Owner is alive but cold: forward the whole request so the owner
	// computes, caches, and owns the plan's tier lifecycle.
	mr, err := cs.forward(r.Context(), client.Base(), endpoint, req, s.cfg.RequestTimeout)
	if err != nil {
		// It answered the cache probe but not the forward (mid-request
		// crash, overload): compute here and publish the result back.
		s.peerErr("proxy", err)
		ci.Degraded = true
		ci.publish = true
		return false, ci
	}
	s.clusterForwards.Inc()
	ci.Proxied = true
	mr.RequestID = RequestIDFromContext(r.Context())
	mr.Cluster = ci
	s.observeTier(mr.Tier)
	s.writeJSON(w, http.StatusOK, *mr)
	return true, ci
}

// forward POSTs the request body to the owner's matching endpoint and
// decodes its response envelope, rejecting a tier outside
// servingTiers. timeout is the caller-facing request timeout — a
// forwarded compute may legitimately take far longer than a cache
// probe.
func (cs *clusterState) forward(ctx context.Context, base, endpoint string, req any, timeout time.Duration) (*MapResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/v1/"+endpoint, strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardedHeader, "1")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("owner returned %s", resp.Status)
	}
	var mr MapResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&mr); err != nil {
		return nil, fmt.Errorf("decode owner response: %w", err)
	}
	if !peerTierOK(mr.Tier) {
		return nil, fmt.Errorf("owner answered with unknown tier %q", mr.Tier)
	}
	return &mr, nil
}

// clusterPublish best-effort write-throughs a locally computed plan to
// its owner's cache after a degraded compute. ci carries whether a
// publish should be attempted; failures are counted by the client's
// OnError hook and otherwise ignored.
func (s *Server) clusterPublish(ci *ClusterInfo, key string, payload []byte, tier string) {
	if ci == nil || !ci.publish {
		return
	}
	s.cluster.clients[ci.Owner].Put(key, cluster.PlanDoc{Payload: payload, Tier: tier})
	ci.Published = true
}

// peerTierOK reports whether a tier a peer sent may be stored or
// served: empty (an untiered entry) or one of servingTiers. Any other
// value would reach clients and mint a new locmapd_tier_served_total
// series.
func peerTierOK(tier string) bool {
	return tier == "" || slices.Contains(servingTiers, tier)
}

// Peer plan API — the owner-side surface clusterRespond's probes and
// publishes talk to, in the service's usual envelope idiom. The
// fingerprint key addresses this node's plan cache directly; ring
// ownership is the caller's concern.

func (s *Server) handleClusterPlanGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("fingerprint")
	entry, ok := s.cache.GetEntry(key)
	if !ok {
		s.writeError(w, r, errf(http.StatusNotFound, ErrPlanNotFound,
			"no cached plan for fingerprint %s", key))
		return
	}
	s.writeJSON(w, http.StatusOK, cluster.PlanDoc{Payload: entry.Payload, Tier: entry.Tier})
}

func (s *Server) handleClusterPlanPut(w http.ResponseWriter, r *http.Request) {
	var doc cluster.PlanDoc
	if !s.decode(w, r, &doc) {
		return
	}
	if !peerTierOK(doc.Tier) {
		s.writeError(w, r, errf(http.StatusBadRequest, ErrInvalidRequest,
			"invalid request: unknown tier %q", doc.Tier))
		return
	}
	key := r.PathValue("fingerprint")
	var inserted bool
	if doc.Upgrade {
		inserted = !s.cache.Upgrade(key, doc.Payload, doc.Tier)
	} else {
		inserted = s.cache.PutTier(key, doc.Payload, doc.Tier)
	}
	s.writeJSON(w, http.StatusOK, cluster.PutResult{Inserted: inserted})
}

func (s *Server) handleClusterPlanDelete(w http.ResponseWriter, r *http.Request) {
	s.cache.Delete(r.PathValue("fingerprint"))
	w.WriteHeader(http.StatusNoContent)
}
