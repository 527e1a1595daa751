package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"locmap/internal/cache"
	"locmap/internal/core"
	"locmap/internal/workloads"
)

// runWorkload executes every nest of a workload once on a fresh System
// and returns everything observable about the run: per-nest results
// plus final aggregate and per-leg statistics.
func runWorkload(bench string, org cache.Organization) ([]NestResult, Stats, []LegSummary) {
	cfg := DefaultConfig()
	cfg.LLCOrg = org
	s := New(cfg)
	p := workloads.MustNew(bench, 1)
	var results []NestResult
	for _, n := range p.Nests {
		sets := s.Sets(n)
		assign := core.DefaultSchedule(s.Mesh(), len(sets))
		results = append(results, s.RunNest(n, sets, assign))
	}
	return results, s.Stats(), s.LegSummaries()
}

// TestConcurrentSystemsAreIndependent runs the same workload from
// several goroutines at once, each on its own System, as locmapd does
// for concurrent requests. Under -race it checks that distinct Systems
// share no mutable state; functionally, that every run matches a lone
// one.
func TestConcurrentSystemsAreIndependent(t *testing.T) {
	baseRes, baseStats, baseLegs := runWorkload("swim", cache.SharedSNUCA)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, stats, legs := runWorkload("swim", cache.SharedSNUCA)
			if !reflect.DeepEqual(res, baseRes) || stats != baseStats || !reflect.DeepEqual(legs, baseLegs) {
				errs <- fmt.Errorf("goroutine %d: concurrent run diverged from a lone run", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEventIs48Bytes: the heap's sift operations copy whole events, so
// the boundary buffer's destination tag must stay inside the padding.
func TestEventIs48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 48 {
		t.Errorf("event is %d bytes, want 48", got)
	}
}
