package core

import (
	"math/rand"
	"sync"
	"testing"
)

// shuffled returns the permutation r.Shuffle applies to 0..n-1.
func shuffled(r *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// checkShuffles draws a run of shuffles of the given lengths from a
// rewound shuffleSource and from a fresh math/rand generator, and
// reports the first difference.
func checkShuffles(seed int64, lengths []int) (int, bool) {
	src := &shuffleSource{}
	got := rand.New(src)
	want := rand.New(rand.NewSource(seed))
	got.Seed(seed)
	for i, n := range lengths {
		g, w := shuffled(got, n), shuffled(want, n)
		for k := range w {
			if g[k] != w[k] {
				return i, false
			}
		}
	}
	return 0, true
}

// TestShuffleSourceMatchesMathRand checks that the shared sequence
// gives the shuffles of rand.New(rand.NewSource(seed)) for several
// seeds and lengths, including runs that consume the whole shared
// prefix and continue on the tail generator.
func TestShuffleSourceMatchesMathRand(t *testing.T) {
	runs := [][]int{
		{0, 1, 2, 45},
		{400},
		{44, 44, 44, 44, 44, 44, 44, 44, 44},
		{shufflePrefix + 1},
		{700, 700, 3000},
	}
	for _, seed := range []int64{0, 1, 3, 11, -7, 1 << 40} {
		for _, lengths := range runs {
			if i, ok := checkShuffles(seed, lengths); !ok {
				t.Errorf("seed %d, lengths %v: shuffle %d differs from math/rand", seed, lengths, i)
			}
		}
	}
}

// TestShuffleSourceConcurrentSeeds fills and reads the shared prefixes
// from several goroutines at once, with more distinct seeds than the
// table keeps, so under -race it covers the first fill, concurrent
// reads and the table's reset.
func TestShuffleSourceConcurrentSeeds(t *testing.T) {
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan int64, goroutines*(maxShuffleSeeds+8))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < maxShuffleSeeds+8; i++ {
				seed := int64(1000 + (i*7+g)%(maxShuffleSeeds+8))
				if _, ok := checkShuffles(seed, []int{300, 90}); !ok {
					errs <- seed
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for seed := range errs {
		t.Errorf("seed %d: concurrent shuffle differs from math/rand", seed)
	}
}
