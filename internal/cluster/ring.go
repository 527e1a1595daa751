// Package cluster gives locmapd fingerprint-routed cluster mode: a
// consistent-hash ring that assigns every canonical fingerprint to an
// owning node, the wire shapes of the peer plan API, and a Client that
// reads and writes a peer's plan cache through that API over HTTP.
//
// Membership is static — the operator passes the same peer list to
// every node — and routing is deterministic: all nodes agree on the
// owner of a fingerprint without any coordination, because the ring
// is a pure function of the member list. Peers are an optimization,
// never a dependency: every remote operation is best-effort, and a
// node that cannot reach the owner computes locally.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// defaultReplicas is the virtual-node count per member. 128 points
// per node keeps the expected ownership imbalance across a handful of
// nodes within a few percent without making lookup tables large.
const defaultReplicas = 128

// Ring is an immutable consistent-hash ring over a set of node names
// (locmapd uses peer base URLs as names). Build with NewRing; lookups
// are safe for concurrent use.
type Ring struct {
	nodes  []string
	points []point // sorted by hash, clockwise
}

type point struct {
	h    uint64
	node string
}

// NewRing builds a ring over nodes with replicas virtual nodes each
// (replicas < 1 selects the default). Duplicate names are dropped;
// order does not matter — rings over the same member set are
// identical. An empty ring is valid: Owner returns "".
func NewRing(nodes []string, replicas int) *Ring {
	if replicas < 1 {
		replicas = defaultReplicas
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, point{h: hashPoint(fmt.Sprintf("%s\x00%d", n, i)), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// Ties (astronomically rare with sha256 points) break by name
		// so all members sort them identically.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// hashPoint folds a label onto the ring's keyspace: the first 8 bytes
// of its SHA-256, big-endian. Fingerprint keys are already hex SHA-256
// digests, but hashing again costs little and makes arbitrary keys
// (and node names) uniform.
func hashPoint(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the node owning key: the first virtual node clockwise
// from the key's hash. Empty rings own nothing and return "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashPoint(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrapped past the highest point
	}
	return r.points[i].node
}

// Nodes returns the member names in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.nodes) }
