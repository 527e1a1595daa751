// Package plancache memoizes finished mapping plans for locmapd, the
// long-running mapping service. Recurring workloads resubmit the same
// loop nest against the same target over and over; once a plan is
// cached, a repeated request skips the whole affinity-estimation +
// mapping + balancing pipeline and is answered from memory.
//
// The cache is a sharded LRU that owns its entries: each shard's LRU
// node holds the plan bytes and their serving tier, and the shard
// keeps the recency order, capacity eviction, tier-upgrade and
// hit/miss counters. Keys are fingerprints of everything that
// determines the plan: the canonicalized loop-nest source (token
// stream — whitespace and comments do not change the key), the
// symbolic parameters (order-independent), the mesh and region
// geometry, the LLC organization, and the α/accuracy and mapper knobs.
// Values are opaque byte slices (the service stores the serialized
// plan), copied on both Put and Get so cached bytes can never be
// aliased by callers.
package plancache

import (
	"container/list"
	"hash/fnv"
	"sort"
	"sync"

	"locmap/internal/fingerprint"
	"locmap/internal/lang"
)

// Spec is everything that determines a plan's content. Fingerprint
// folds it into a cache key.
type Spec struct {
	// Source is the loop-nest program text. It is canonicalized
	// (lexed) before hashing, so formatting differences do not
	// fragment the cache.
	Source string

	// Params are the symbolic loop-bound values. Map iteration order
	// is irrelevant: entries are hashed in sorted name order.
	Params map[string]int64

	// Mesh/region geometry of the target.
	MeshW, MeshH       int
	RegionsX, RegionsY int

	// SharedLLC selects Algorithm 2 (S-NUCA) over Algorithm 1.
	SharedLLC bool

	// Alpha is the cache-miss-estimator accuracy knob (the compiler's
	// CMEAccuracy; 0 means the per-application default band).
	Alpha float64

	// Seed, FineMAC and Intra are the mapper knobs that change the
	// resulting schedule.
	Seed    int64
	FineMAC bool
	Intra   int

	// MCs and Banks pin a custom physical placement: MC coordinates in
	// id order, and the shared-LLC bank tile subset in interleave
	// order. Both are hashed only when present, so requests for the
	// default chip keep their pre-placement fingerprints (the byte
	// layout cluster routing depends on).
	MCs   [][2]int
	Banks [][2]int

	// TimingIters is the simulate-only timing-loop trip-count override
	// (0 keeps the source's value). It changes the cycle counts in a
	// SimResult, so it must be part of the key; plain map requests
	// leave it zero.
	TimingIters int

	// Kind namespaces different result types computed from the same
	// inputs (e.g. "map" vs "simulate").
	Kind string
}

// Fingerprint returns the canonical cache key for the spec: a hex
// SHA-256 over the canonicalized source and every plan-determining
// field, in the fixed fingerprint.Hasher encoding. Sources that differ
// only in whitespace/comments, and specs that differ only in Params
// map order, fingerprint identically. It fails only when the source
// cannot be tokenized. In cluster mode this key also selects the
// owning node, so its byte layout is pinned by the fingerprint
// package's tests.
func (s Spec) Fingerprint() (string, error) {
	canon, err := lang.Canonical(s.Source)
	if err != nil {
		return "", err
	}
	fp := fingerprint.New()
	fp.Str(s.Kind)
	fp.Str(canon)
	names := make([]string, 0, len(s.Params))
	for name := range s.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	fp.Int(int64(len(names)))
	for _, name := range names {
		fp.Str(name)
		fp.Int(s.Params[name])
	}
	fp.Int(int64(s.MeshW))
	fp.Int(int64(s.MeshH))
	fp.Int(int64(s.RegionsX))
	fp.Int(int64(s.RegionsY))
	fp.Bool(s.SharedLLC)
	fp.Float(s.Alpha)
	fp.Int(s.Seed)
	fp.Bool(s.FineMAC)
	fp.Int(int64(s.Intra))
	fp.Int(int64(s.TimingIters))
	hashCoords(fp, "mcs", s.MCs)
	hashCoords(fp, "banks", s.Banks)
	return fp.Sum(), nil
}

// hashCoords folds a coordinate list into the fingerprint behind a tag,
// writing nothing when the list is empty: the hasher's length-prefixed
// encoding makes any tagged suffix unambiguous, and skipping it keeps
// placement-free specs byte-compatible with pre-placement fingerprints.
func hashCoords(fp *fingerprint.Hasher, tag string, cs [][2]int) {
	if len(cs) == 0 {
		return
	}
	fp.Str(tag)
	fp.Int(int64(len(cs)))
	for _, c := range cs {
		fp.Int(int64(c[0]))
		fp.Int(int64(c[1]))
	}
}

// numShards spreads lock contention; must be a power of two.
const numShards = 16

// Cache is a sharded LRU of serialized plans, bounded by a total entry
// count. All methods are safe for concurrent use.
type Cache struct {
	shards [numShards]shard
}

type shard struct {
	mu           sync.Mutex
	ll           *list.List // front = most recent
	items        map[string]*list.Element
	capacity     int
	hits         uint64
	misses       uint64
	evictions    uint64
	tierUpgrades uint64
}

// entry is a shard's LRU node: the key and the cache's own copy of its
// payload and tier.
type entry struct {
	key     string
	payload []byte
	tier    string
}

// New builds a cache holding at most capacity entries in total
// (rounded up to a multiple of the shard count; capacity < 1 gets a
// minimal one-entry-per-shard cache).
func New(capacity int) *Cache {
	per := (capacity + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{}
	for i := range c.shards {
		c.shards[i] = shard{
			ll:       list.New(),
			items:    make(map[string]*list.Element),
			capacity: per,
		}
	}
	return c
}

func (c *Cache) shardFor(key string) *shard {
	f := fnv.New32a()
	f.Write([]byte(key))
	return &c.shards[f.Sum32()&(numShards-1)]
}

// clone copies b so cached bytes are never aliased by callers in
// either direction.
func clone(b []byte) []byte {
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

// Entry is a cached value plus its confidence tier (the serving tier
// of the stored plan: "static", "sim", "estimate", "verified" or
// "refined"; empty for entries stored through the tierless Put).
type Entry struct {
	Payload []byte
	Tier    string
}

// Get returns a copy of the value cached under key, marking the entry
// most-recently-used, or (nil, false) on a miss.
func (c *Cache) Get(key string) ([]byte, bool) {
	e, ok := c.GetEntry(key)
	return e.Payload, ok
}

// GetEntry is Get plus the entry's tier tag.
func (c *Cache) GetEntry(key string) (Entry, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		s.misses++
		return Entry{}, false
	}
	s.hits++
	s.ll.MoveToFront(el)
	e := el.Value.(*entry)
	return Entry{Payload: clone(e.payload), Tier: e.tier}, true
}

// Put stores a copy of val under key with no tier tag; see PutTier.
func (c *Cache) Put(key string, val []byte) bool {
	return c.PutTier(key, val, "")
}

// PutTier stores a copy of val under key tagged with tier, evicting
// the shard's least-recently-used entries if it is over capacity.
// Putting an existing key refreshes its value, tier and recency. It
// reports whether a new entry was inserted (false when an existing
// key was refreshed), so callers warming the cache can count genuine
// additions.
func (c *Cache) PutTier(key string, val []byte, tier string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setLocked(key, val, tier)
}

// Upgrade replaces an existing entry's payload and tier in place —
// the verification path promoting an "estimate" entry to "verified"
// or "refined" under the same fingerprint. It reports whether the key
// was present (and counts it as a tier upgrade); when the entry was
// already evicted the upgraded value is inserted instead, so the work
// is never thrown away, but the upgrade counter stays untouched.
func (c *Cache) Upgrade(key string, val []byte, tier string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.setLocked(key, val, tier) {
		return false
	}
	s.tierUpgrades++
	return true
}

// setLocked stores a copy of val under key tagged with tier as the
// shard's most recent entry, evicting over capacity, and reports
// whether the key was new. Caller holds s.mu.
func (s *shard) setLocked(key string, val []byte, tier string) bool {
	if el, ok := s.items[key]; ok {
		e := el.Value.(*entry)
		e.payload, e.tier = clone(val), tier
		s.ll.MoveToFront(el)
		return false
	}
	s.items[key] = s.ll.PushFront(&entry{key: key, payload: clone(val), tier: tier})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.items, oldest.Value.(*entry).key)
		s.evictions++
	}
	return true
}

// Delete removes key from the cache. Deleting an absent key is a
// no-op.
func (c *Cache) Delete(key string) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.Remove(el)
		delete(s.items, key)
	}
}

// Len reports the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
	TierUpgrades uint64 `json:"tier_upgrades"`
	Entries      int    `json:"entries"`
	Capacity     int    `json:"capacity"`
}

// NumShards reports the shard count (fixed at construction).
func (c *Cache) NumShards() int { return numShards }

// ShardStat reports shard i's counters. It is the per-shard view
// behind locmapd's /metrics plancache families; Stats sums it over
// all shards.
func (c *Cache) ShardStat(i int) Stats {
	s := &c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:         s.hits,
		Misses:       s.misses,
		Evictions:    s.evictions,
		TierUpgrades: s.tierUpgrades,
		Entries:      s.ll.Len(),
		Capacity:     s.capacity,
	}
}

// Stats sums the per-shard counters.
func (c *Cache) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.TierUpgrades += s.tierUpgrades
		st.Entries += s.ll.Len()
		st.Capacity += s.capacity
		s.mu.Unlock()
	}
	return st
}
