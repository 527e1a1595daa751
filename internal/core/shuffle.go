package core

import (
	"math/rand"
	"sync"
)

// shufflePrefix is how many values of a seed's sequence are computed
// once and shared. One nest consumes about one value per iteration set
// (Table 4's 0.25% sets give about 400, the smallest studied, 0.1%,
// about 1000); a longer nest continues past the prefix on its own
// generator.
const shufflePrefix = 1024

// maxShuffleSeeds bounds the shared prefixes (8 KiB each). Seeds come
// from requests, so when the table is full it is emptied and refilled
// as seeds recur.
const maxShuffleSeeds = 64

// prefixes memoizes shuffleSeq, a pure function of the seed, so no
// caller can observe another's use of it.
var prefixes struct {
	sync.Mutex
	m map[int64][]int64
}

// shuffleSeq returns the first shufflePrefix values of
// rand.NewSource(seed)'s Int63 sequence. The slice is shared: callers
// must not modify it.
func shuffleSeq(seed int64) []int64 {
	prefixes.Lock()
	defer prefixes.Unlock()
	if seq, ok := prefixes.m[seed]; ok {
		return seq
	}
	if prefixes.m == nil || len(prefixes.m) >= maxShuffleSeeds {
		prefixes.m = make(map[int64][]int64)
	}
	src := rand.NewSource(seed)
	seq := make([]int64, shufflePrefix)
	for i := range seq {
		seq[i] = src.Int63()
	}
	prefixes.m[seed] = seq
	return seq
}

// shuffleSource is the rand.Source behind a Mapper's IntraRandom
// shuffles. Seeding it rewinds to the start of the seed's shared
// sequence instead of refilling a generator's 607-word state, which
// assignCores does for every nest and NewMapper for every mapper.
// math/rand's Shuffle reads nothing but Int63 from its source, so the
// shuffles equal those of rand.New(rand.NewSource(seed)).
type shuffleSource struct {
	seed int64
	seq  []int64 // shared; read-only
	pos  int
	tail rand.Source // continues the sequence past seq; nil until needed
}

// Seed implements rand.Source.
func (s *shuffleSource) Seed(seed int64) {
	*s = shuffleSource{seed: seed, seq: shuffleSeq(seed)}
}

// Int63 implements rand.Source.
func (s *shuffleSource) Int63() int64 {
	if s.pos < len(s.seq) {
		v := s.seq[s.pos]
		s.pos++
		return v
	}
	if s.tail == nil {
		s.tail = rand.NewSource(s.seed)
		for range s.seq {
			s.tail.Int63()
		}
	}
	return s.tail.Int63()
}
