// Package anneal is the simulated-annealing kernel the seeded searches
// share: internal/placeopt's memory-controller placement and
// internal/tenancy's co-placement. The caller owns the state and the
// moves; the kernel owns the Metropolis acceptance and the cooling
// schedule, so both searches cool the same way.
package anneal

import (
	"math"
	"math/rand"
)

const (
	// tempFrac sets the initial temperature as a fraction of the
	// caller's cost scale; coolRatio is the total geometric decay over
	// the steps.
	tempFrac  = 0.05
	coolRatio = 1e-3
)

// Run takes steps Metropolis steps from a state of cost cur. Each step
// calls move, which applies one random neighbour to the caller's state
// and returns its cost, then keep, which learns whether the step was
// accepted; a rejected step is the caller's to undo. A step that does
// not raise the cost is accepted; a worse one is accepted with
// probability exp(-Δ/T), drawing one number from rng after move's own
// draws. T starts at tempFrac·scale (1 when that is not positive) and
// falls geometrically to coolRatio of that over the steps. Integer
// costs convert to float64 exactly below 2^53, so callers with integer
// costs see the same decisions as integer arithmetic.
func Run(rng *rand.Rand, steps int, scale, cur float64, move func() float64, keep func(bool)) {
	if steps <= 0 {
		return
	}
	temp := tempFrac * scale
	if temp <= 0 {
		temp = 1
	}
	cool := math.Pow(coolRatio, 1/float64(steps))
	for i := 0; i < steps; i++ {
		c := move()
		ok := c <= cur || rng.Float64() < math.Exp(-(c-cur)/temp)
		if ok {
			cur = c
		}
		keep(ok)
		temp *= cool
	}
}
