package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"locmap/internal/server"
	"locmap/internal/sim"
)

// The program family: every request the serving workloads send is one
// of these generated specs. The family is stratified so that each seed
// draws the same mix of program shapes, footprints and targets; the
// seed picks the order, work cycles, edge-MC sites and the other
// shape details inside each stratum. That keeps latency distributions
// and model-quality figures comparable across seeds while every seed
// still sends its own inputs.

// Kinds of generated program.
const (
	kindStream    = "stream"    // one regular streaming nest
	kindMultiNest = "multinest" // a 2-D stencil plus streaming nests
	kindGather    = "gather"    // a streaming nest plus an irregular X[IDX[i]] gather
)

var kinds = []string{kindStream, kindMultiNest, kindGather}

// target is one machine a spec maps onto.
type target struct {
	mesh, regions string
	w, h          int
}

var targets = []target{{"6x6", "3x3", 6, 6}, {"8x8", "4x4", 8, 8}}

// Spec is one generated request: a program and the machine it is
// mapped onto. Request returns the body the server accepts.
type Spec struct {
	Name string
	Kind string

	// Stratum numbers the spec's combination of kind, footprint class,
	// mesh, LLC organization and MC placement.
	Stratum int

	Source        string
	Mesh, Regions string
	LLC           string
	MCs           [][2]int
}

// Request is the spec as the shared request block of /v1/map,
// /v1/estimate, /v1/simulate and /v1/optimize.
func (s Spec) Request() server.CommonRequest {
	return server.CommonRequest{
		Source:  s.Source,
		Mesh:    s.Mesh,
		Regions: s.Regions,
		LLC:     s.LLC,
		MCs:     s.MCs,
	}
}

// footprints is a range of per-core footprints, as multiples of
// L2PerCore, split into classes of equal width on a log scale. Within a
// class the specs of one block sit on an even grid, one point per
// combination of kind, mesh, LLC and MC placement, so latency
// distributions are smooth and their quantiles do not jump between
// classes. The grid is the same for every seed: a random footprint per
// spec would make a run's median depend on the few specs that land
// near it. Each later block shifts the grid by the golden ratio, so a
// large family still covers every class densely.
type footprints struct {
	lo, hi  float64
	classes int
}

// planFootprints spans well under to well over one core's L2 share.
// Compile cost grows with the lines a program touches; log-uniform
// footprints keep a cold map near 10 ms on average on the reference
// host instead of letting the largest programs set it.
var planFootprints = footprints{0.01, 1.6, 12}

// Family generates n specs from seed. Specs come in blocks that hold
// every combination of kind, footprint class, mesh, LLC organization
// and MC placement exactly once, in an order shuffled per block. Every
// run that sends a block's worth of distinct programs therefore sends
// the same mix; the seed picks the order and, within each combination,
// the work cycles, edge-MC sites, stream width and stencil rows.
func Family(seed uint64, n int, fps footprints) []Spec {
	rng := rand.New(rand.NewPCG(seed, 0x6c6f636d6170))
	strata := fps.strata()
	perClass := strata / fps.classes
	var perm []int
	out := make([]Spec, n)
	for i := range out {
		if i%strata == 0 {
			perm = rng.Perm(strata)
		}
		k := perm[i%strata]
		stratum := k
		kind := kinds[k%len(kinds)]
		k /= len(kinds)
		class := k % fps.classes
		k /= fps.classes
		// Grid point of this combination inside its class; the stride
		// 7 (coprime to perClass) spreads each kind and target over
		// the class instead of giving it one end.
		combo := k*len(kinds) + stratum%len(kinds)
		pos := math.Mod((float64(combo*7%perClass)+0.5)/float64(perClass)+float64(i/strata)*goldenFrac, 1)
		fp := fps.lo * math.Pow(fps.hi/fps.lo, (float64(class)+pos)/float64(fps.classes))
		tg := targets[k%len(targets)]
		k /= len(targets)
		llc := []string{"private", "shared"}[k%2]
		edge := k/2 == 1

		s := Spec{
			Kind:    kind,
			Stratum: stratum,
			Mesh:    tg.mesh,
			Regions: tg.regions,
			LLC:     llc,
		}
		mcs := "corner"
		if edge {
			s.MCs = edgeMCs(rng, tg.w, tg.h)
			mcs = "edge"
		}
		s.Name = fmt.Sprintf("%d:%s-%.3g-%s-%s-%s", i, kind, fp, tg.mesh, llc, mcs)
		bytes := fp * float64(sim.DefaultConfig().L2PerCore) * float64(tg.w*tg.h)
		s.Source = genSource(rng, kind, int64(bytes))
		out[i] = s
	}
	return out
}

// goldenFrac is the fractional part of the golden ratio: successive
// multiples of it fill [0, 1) evenly.
const goldenFrac = 0.6180339887498949

// strata is the number of combinations in one block of a family.
func (f footprints) strata() int { return len(kinds) * f.classes * len(targets) * 2 * 2 }

// edgeMCs picks four distinct perimeter tiles, none a corner, so the
// placement always differs from the default corner chip.
func edgeMCs(rng *rand.Rand, w, h int) [][2]int {
	var sites [][2]int
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			onEdge := x == 0 || x == w-1 || y == 0 || y == h-1
			corner := (x == 0 || x == w-1) && (y == 0 || y == h-1)
			if onEdge && !corner {
				sites = append(sites, [2]int{x, y})
			}
		}
	}
	rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
	return sites[:4]
}

// iterBudget is the largest unit-stride iteration count a generated
// nest gets. Compile cost grows with iterations (the cache-miss
// estimator walks every one), so larger footprints are reached with a
// stride of one element per 64-byte line instead: the program then
// touches every line of its arrays with an eighth of the iterations.
const iterBudget = 48 << 10

// genSource renders one program of the given kind whose arrays total
// about bytes bytes (8-byte elements).
func genSource(rng *rand.Rand, kind string, bytes int64) string {
	work := func() int { return 4 << rng.IntN(5) } // 4..64 cycles
	// plan returns the iteration count and stride for a nest over
	// arrays arrays of total bytes bytes.
	plan := func(arrays int64) (n, stride int64) {
		n, stride = bytes/8/arrays, 1
		if n > iterBudget {
			n, stride = n/8, 8
		}
		if n < 64 {
			n = 64
		}
		return n, stride
	}
	sub := func(stride int64, expr string) string {
		if stride == 1 {
			return expr
		}
		return fmt.Sprintf("%d*%s", stride, expr)
	}
	var b strings.Builder
	switch kind {
	case kindStream:
		// A = B + C (+ D) over N elements.
		arrays := 3 + rng.IntN(2)
		n, st := plan(int64(arrays))
		fmt.Fprintf(&b, "param N = %d\n", n*st)
		names := []string{"A", "B", "C", "D"}[:arrays]
		for _, a := range names {
			fmt.Fprintf(&b, "array %s[N]\n", a)
		}
		rhs := make([]string, 0, arrays-1)
		for _, a := range names[1:] {
			rhs = append(rhs, a+"["+sub(st, "i")+"]")
		}
		fmt.Fprintf(&b, "parallel for i = 0..%d work %d {\n  A[%s] = %s\n}\n",
			n, work(), sub(st, "i"), strings.Join(rhs, " + "))
	case kindMultiNest:
		// A rows x cols 3-point stencil from G into H, then two streams
		// that read H back.
		n, st := plan(4)
		cols := int64(64 << rng.IntN(3)) // 64, 128 or 256
		rows := n / cols
		if rows < 2 {
			rows = 2
		}
		n = rows * cols
		fmt.Fprintf(&b, "param N = %d\n", n*st)
		b.WriteString("array G[N + 16]\narray H[N + 16]\narray A[N]\narray B[N]\n")
		cell := sub(st, fmt.Sprintf("(%d*i + j)", cols))
		if st == 1 {
			cell = fmt.Sprintf("%d*i + j", cols)
		} else {
			cell = fmt.Sprintf("%d*i + %d*j", st*cols, st)
		}
		fmt.Fprintf(&b, "parallel for i = 0..%d work %d {\n  for j = 0..%d {\n", rows, work(), cols)
		fmt.Fprintf(&b, "    H[%s + %d] = G[%s] + G[%s + %d] + G[%s + %d]\n  }\n}\n",
			cell, st, cell, cell, st, cell, 2*st)
		fmt.Fprintf(&b, "parallel for i = 0..%d work %d {\n  A[%s] = H[%s] + B[%s]\n}\n",
			n, work(), sub(st, "i"), sub(st, "i"), sub(st, "i"))
		fmt.Fprintf(&b, "parallel for i = 0..%d work %d {\n  B[%s] = A[%s] + H[%s + %d]\n}\n",
			n, work(), sub(st, "i"), sub(st, "i"), sub(st, "i"), st)
	case kindGather:
		// A stream over A/B, then OUT[i] = X[IDX[i]] + A[i] with X twice
		// the size of the streamed arrays.
		n, st := plan(6)
		fmt.Fprintf(&b, "param N = %d\nparam M = %d\n", n*st, 2*n*st)
		fmt.Fprintf(&b, "array A[N]\narray B[N]\narray X[M]\narray IDX[%d]\narray OUT[N]\n", n)
		fmt.Fprintf(&b, "parallel for i = 0..%d work %d {\n  A[%s] = B[%s]\n}\n",
			n, work(), sub(st, "i"), sub(st, "i"))
		fmt.Fprintf(&b, "parallel for i = 0..%d work %d {\n  OUT[%s] = X[IDX[i]] + A[%s]\n}\n",
			n, work(), sub(st, "i"), sub(st, "i"))
	}
	return b.String()
}
