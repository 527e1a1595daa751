package plancache

import (
	"fmt"
	"sync"
	"testing"
)

const triadSrc = `
param N = 65536
array A[N]
array B[N]
array C[N]
parallel for i = 0..N work 64 {
  A[i] = B[i] + C[i]
}
`

func baseSpec() Spec {
	return Spec{
		Source: triadSrc,
		Params: map[string]int64{"N": 65536},
		MeshW:  6, MeshH: 6,
		RegionsX: 3, RegionsY: 3,
		Kind: "map",
	}
}

func mustFP(t *testing.T, s Spec) string {
	t.Helper()
	fp, err := s.Fingerprint()
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	return fp
}

func TestFingerprintStability(t *testing.T) {
	base := mustFP(t, baseSpec())

	tests := []struct {
		name   string
		mutate func(*Spec)
		same   bool
	}{
		{"identical spec", func(s *Spec) {}, true},
		{"whitespace-only source change", func(s *Spec) {
			s.Source = "param N=65536\narray A[N]\narray B[N]\narray C[N]\nparallel for i=0..N work 64 { A[i]=B[i]+C[i] }"
		}, true},
		{"comments stripped", func(s *Spec) {
			s.Source = "# a triad\n" + triadSrc + "\n# trailing comment"
		}, true},
		{"different param set", func(s *Spec) {
			s.Params = map[string]int64{"Z": 1, "N": 65536, "A": 2}
		}, false},
		{"different mesh", func(s *Spec) { s.MeshW = 8 }, false},
		{"different regions", func(s *Spec) { s.RegionsY = 2 }, false},
		{"different LLC mode", func(s *Spec) { s.SharedLLC = true }, false},
		{"different alpha", func(s *Spec) { s.Alpha = 0.9 }, false},
		{"different seed", func(s *Spec) { s.Seed = 7 }, false},
		{"different fine-MAC", func(s *Spec) { s.FineMAC = true }, false},
		{"different intra policy", func(s *Spec) { s.Intra = 1 }, false},
		{"different timing iters", func(s *Spec) { s.TimingIters = 5 }, false},
		{"different kind", func(s *Spec) { s.Kind = "simulate" }, false},
		{"different source tokens", func(s *Spec) {
			s.Source = triadSrc + "\nparallel for i = 0..N work 64 { C[i] = A[i] }"
		}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			s := baseSpec()
			tc.mutate(&s)
			got := mustFP(t, s)
			if (got == base) != tc.same {
				t.Errorf("fingerprint equality = %v, want %v", got == base, tc.same)
			}
		})
	}
}

// TestFingerprintParamOrder checks that two maps holding the same
// entries fingerprint identically regardless of construction order.
func TestFingerprintParamOrder(t *testing.T) {
	a := baseSpec()
	a.Params = map[string]int64{}
	b := baseSpec()
	b.Params = map[string]int64{}
	keys := []string{"N", "M", "K", "J", "H", "G"}
	for i, k := range keys {
		a.Params[k] = int64(i)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Params[keys[i]] = int64(i)
	}
	if mustFP(t, a) != mustFP(t, b) {
		t.Errorf("param insertion order changed the fingerprint")
	}
}

func TestFingerprintRejectsUnlexableSource(t *testing.T) {
	s := baseSpec()
	s.Source = "parallel for i = 0..N { A[i] = B[i] ; }" // ';' is not a token
	if _, err := s.Fingerprint(); err == nil {
		t.Fatalf("expected error for unlexable source")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := New(64)
	if _, ok := c.Get("k1"); ok {
		t.Fatalf("unexpected hit on empty cache")
	}
	c.Put("k1", []byte("plan-1"))
	got, ok := c.Get("k1")
	if !ok || string(got) != "plan-1" {
		t.Fatalf("Get(k1) = %q, %v; want plan-1, true", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", st)
	}
}

func TestCacheCopiesValues(t *testing.T) {
	c := New(8)
	v := []byte("original")
	c.Put("k", v)
	v[0] = 'X' // caller mutates after Put
	got, _ := c.Get("k")
	if string(got) != "original" {
		t.Fatalf("Put did not copy: got %q", got)
	}
	got[0] = 'Y' // caller mutates the returned slice
	again, _ := c.Get("k")
	if string(again) != "original" {
		t.Fatalf("Get did not copy: got %q", again)
	}
}

// TestPutReportsInsertion: Put's return value distinguishes a new
// entry from a refresh, so cache-warming callers (jobqueue replay)
// can count genuine additions.
func TestPutReportsInsertion(t *testing.T) {
	c := New(8)
	if !c.Put("k", []byte("v1")) {
		t.Error("first Put reported no insertion")
	}
	if c.Put("k", []byte("v2")) {
		t.Error("refreshing Put reported an insertion")
	}
	if !c.Put("k2", []byte("v3")) {
		t.Error("distinct-key Put reported no insertion")
	}
}

// TestDelete: a deleted key misses, deleting an absent key is a no-op,
// and a Put after Delete is a fresh insertion.
func TestDelete(t *testing.T) {
	c := New(8)
	c.PutTier("k", []byte("v"), "estimate")
	c.Delete("k")
	if _, ok := c.GetEntry("k"); ok {
		t.Error("deleted key still present")
	}
	c.Delete("never-existed")
	if n := c.Len(); n != 0 {
		t.Errorf("Len after deletes = %d, want 0", n)
	}
	if !c.Put("k", []byte("v2")) {
		t.Error("Put after Delete reported no insertion")
	}
}

// TestEmptyUntieredEntry: an empty payload with no tier is a hit, not
// a miss, and comes back empty and untiered.
func TestEmptyUntieredEntry(t *testing.T) {
	c := New(8)
	c.PutTier("k", nil, "")
	e, ok := c.GetEntry("k")
	if !ok || len(e.Payload) != 0 || e.Tier != "" {
		t.Fatalf("empty entry round-trip = %+v, %v", e, ok)
	}
}

func TestCacheUpdateRefreshesValue(t *testing.T) {
	c := New(8)
	c.Put("k", []byte("v1"))
	c.Put("k", []byte("v2"))
	got, _ := c.Get("k")
	if string(got) != "v2" {
		t.Fatalf("got %q, want v2", got)
	}
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestCacheEvictsAtCapacity(t *testing.T) {
	const capacity = 64
	c := New(capacity)
	n := capacity * 4
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("key-%d", i), []byte{byte(i)})
	}
	if got := c.Len(); got > capacity {
		t.Fatalf("Len = %d after %d inserts, want <= %d", got, n, capacity)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", st)
	}
	if st.Entries+int(st.Evictions) != n {
		t.Errorf("entries(%d) + evictions(%d) != inserts(%d)", st.Entries, st.Evictions, n)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// A capacity-16 cache has 1-entry shards: two keys in the same
	// shard can't coexist, and the newer key must win.
	c := New(16)
	var k1, k2 string
	// Find two keys that land in the same shard.
	s0 := c.shardFor("probe-0")
outer:
	for i := 1; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if c.shardFor(k) == s0 {
			k1, k2 = "probe-0", k
			break outer
		}
	}
	c.Put(k1, []byte("a"))
	c.Put(k2, []byte("b"))
	if _, ok := c.Get(k1); ok {
		t.Errorf("oldest entry %q survived a same-shard insert at capacity 1", k1)
	}
	if v, ok := c.Get(k2); !ok || string(v) != "b" {
		t.Errorf("newest entry %q lost: %q, %v", k2, v, ok)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines; run
// under -race it proves the sharded locking is sound.
func TestCacheConcurrent(t *testing.T) {
	c := New(128)
	const goroutines = 16
	const ops = 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("key-%d", (g*ops+i)%200)
				if i%3 == 0 {
					c.Put(key, []byte(key))
				} else if v, ok := c.Get(key); ok && string(v) != key {
					t.Errorf("Get(%q) = %q", key, v)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 128 {
		t.Fatalf("Len = %d, want <= 128", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatalf("no Get traffic recorded: %+v", st)
	}
}

// TestShardStatsSumToTotals: the per-shard accessor (what the metrics
// collectors sample) must partition the aggregate Stats exactly.
func TestShardStatsSumToTotals(t *testing.T) {
	c := New(64)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		c.Get(key) // miss
		c.Put(key, []byte(key))
		c.Get(key) // hit
	}
	if n := c.NumShards(); n <= 0 {
		t.Fatalf("NumShards = %d", n)
	}
	var sum Stats
	for i := 0; i < c.NumShards(); i++ {
		st := c.ShardStat(i)
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.Entries += st.Entries
		sum.Capacity += st.Capacity
	}
	if total := c.Stats(); sum != total {
		t.Errorf("shard sum %+v != aggregate %+v", sum, total)
	}
}

func TestTierTagLifecycle(t *testing.T) {
	c := New(8)
	c.PutTier("k", []byte("analytical"), "estimate")
	e, ok := c.GetEntry("k")
	if !ok || e.Tier != "estimate" || string(e.Payload) != "analytical" {
		t.Fatalf("GetEntry = %+v, %v", e, ok)
	}
	// Get sees the same entry without the tag.
	if v, ok := c.Get("k"); !ok || string(v) != "analytical" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	// Untagged Put clears the tier: the legacy path owns the entry now.
	c.Put("k", []byte("legacy"))
	if e, _ := c.GetEntry("k"); e.Tier != "" || string(e.Payload) != "legacy" {
		t.Errorf("after Put: %+v", e)
	}
}

func TestUpgradeInPlace(t *testing.T) {
	c := New(8)
	if c.Stats().TierUpgrades != 0 {
		t.Fatal("fresh cache reports upgrades")
	}
	c.PutTier("k", []byte("analytical"), "estimate")
	if !c.Upgrade("k", []byte("checked"), "verified") {
		t.Fatal("Upgrade of a present key reported absence")
	}
	e, ok := c.GetEntry("k")
	if !ok || e.Tier != "verified" || string(e.Payload) != "checked" {
		t.Fatalf("after upgrade: %+v, %v", e, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Upgrade duplicated the entry: len = %d", c.Len())
	}
	if got := c.Stats().TierUpgrades; got != 1 {
		t.Errorf("TierUpgrades = %d, want 1", got)
	}
}

func TestUpgradeAfterEvictionInsertsWithoutCounting(t *testing.T) {
	c := New(8)
	// The verified payload must not be thrown away just because the
	// estimate entry was evicted first...
	if c.Upgrade("gone", []byte("checked"), "verified") {
		t.Fatal("Upgrade of a missing key claimed it was present")
	}
	e, ok := c.GetEntry("gone")
	if !ok || e.Tier != "verified" || string(e.Payload) != "checked" {
		t.Fatalf("upgrade-insert lost the value: %+v, %v", e, ok)
	}
	// ...but it is not an in-place upgrade either.
	if got := c.Stats().TierUpgrades; got != 0 {
		t.Errorf("TierUpgrades = %d, want 0", got)
	}
}

func TestShardStatsCountTierUpgrades(t *testing.T) {
	c := New(64)
	const n = 10
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%d", i)
		c.PutTier(k, []byte("e"), "estimate")
		c.Upgrade(k, []byte("v"), "verified")
	}
	var sum uint64
	for i := 0; i < c.NumShards(); i++ {
		sum += c.ShardStat(i).TierUpgrades
	}
	if sum != n {
		t.Errorf("per-shard upgrades sum = %d, want %d", sum, n)
	}
	if tot := c.Stats().TierUpgrades; tot != n {
		t.Errorf("Stats().TierUpgrades = %d, want %d", tot, n)
	}
}
