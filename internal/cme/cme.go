// Package cme is the compile-time cache-miss estimator the compiler uses
// for regular (affine) applications, in the spirit of Cache Miss Equations
// (Ghosh et al., TOPLAS 1999) as adapted by the paper (§4, footnote 8):
// a statistical walk of each loop nest's affine reference stream through a
// capacity model, producing per-iteration-set predictions of
//
//   - which memory controller serves each predicted LLC miss → MAI,
//   - which bank region serves each predicted LLC hit → CAI (shared LLC),
//   - the predicted hit fraction → α.
//
// The paper's CME implementation is 76–93% accurate depending on the
// application. We model that explicitly: the estimator carries a
// per-application Accuracy, and each hit/miss classification is flipped
// with probability 1−Accuracy by a deterministic per-access hash, so the
// downstream MAI/CAI error studies (Figures 7a and 8a) measure a
// realistically imperfect estimator.
//
// The walk is the cost of every uncached compile, so it is built for
// speed without changing a single classification. Addresses come from
// the simulator's loop.Stepper, one add per reference per iteration. The
// capacity model (type model) is an LRU cache with cache.Cache's exact
// hit/miss sequence but O(1) misses, which dominate the stream: LRU sets
// kept as rings and a residency bitmap over line numbers, capped at
// maxResidentLines. The misclassification draw compares integers, and a
// shared LLC's hit reads its bank's region from a table.
package cme

import (
	"math"
	"math/bits"

	"locmap/internal/affinity"
	"locmap/internal/cache"
	"locmap/internal/loop"
	"locmap/internal/mem"
	"locmap/internal/topology"
)

// Config parameterizes the estimator for a target machine.
type Config struct {
	Mesh *topology.Mesh
	Org  cache.Organization
	AMap mem.Map

	// L1Line filters the reference stream: consecutive accesses to the
	// same L1 line are assumed to hit in L1 and never reach the LLC.
	L1Line int

	// ModelBytes / ModelLine / ModelWays describe the capacity model the
	// symbolic stream is walked through. For private LLCs this is one
	// bank; for shared LLCs a per-core share scaled by sharing degree.
	ModelBytes int
	ModelLine  int
	ModelWays  int

	// IterSetFrac matches the scheduler's iteration-set size.
	IterSetFrac float64

	// Accuracy is the probability a hit/miss classification is kept
	// (the paper: 0.76–0.93 per application). 1.0 = oracle
	// classification (used by the Figure 15 perfect-estimation study).
	Accuracy float64

	// Seed decorrelates the misclassification hash across runs.
	Seed uint64
}

// Estimator walks a program's reference stream and predicts per-set
// affinities. The capacity model is warmed across nests, mirroring how
// data cached by one nest serves the next.
type Estimator struct {
	cfg   Config
	model *model
	ctr   uint64

	// keep is the misclassification threshold: a draw Mix64(..)>>11
	// below it keeps the classification. 0 means no noise (Accuracy ≥ 1).
	keep uint64

	// l1Shift replaces the L1-line division when L1Line is a power of
	// two.
	l1Shift uint
	l1Pow2  bool

	// bankRegion[b] is the region of bank b's node (shared LLC only).
	bankRegion []int
}

// New builds an estimator. ModelWays/ModelLine default to 16/64 when zero.
func New(cfg Config) *Estimator {
	if cfg.ModelLine == 0 {
		cfg.ModelLine = 64
	}
	if cfg.ModelWays == 0 {
		cfg.ModelWays = 16
	}
	if cfg.ModelBytes == 0 {
		cfg.ModelBytes = 512 << 10
	}
	if cfg.Accuracy <= 0 {
		cfg.Accuracy = 1
	}
	e := &Estimator{
		cfg:   cfg,
		model: newModel(cfg.ModelBytes, cfg.ModelLine, cfg.ModelWays),
	}
	if cfg.Accuracy < 1 {
		// A draw x = h>>11 is below 2^53, so float64(x)/2^53 is exact
		// and the float test x/2^53 ≥ Accuracy is x ≥ Accuracy·2^53
		// (an exact scaling), which for an integer x is x ≥ ceil(...).
		e.keep = uint64(math.Ceil(cfg.Accuracy * (1 << 53)))
	}
	if isPow2(cfg.L1Line) {
		e.l1Pow2 = true
		e.l1Shift = uint(bits.TrailingZeros64(uint64(cfg.L1Line)))
	}
	if cfg.Org == cache.SharedSNUCA {
		e.bankRegion = make([]int, cfg.Mesh.NumNodes())
		for b := range e.bankRegion {
			e.bankRegion[b] = int(cfg.Mesh.RegionOf(topology.NodeID(b)))
		}
	}
	return e
}

// Mix64 is the deterministic splitmix64 finalizer shared by every
// hash-driven estimation component: the CME's misclassification draw
// here and internal/estimate's reuse-distance line sampler. One mixer
// keeps the "same input, same verdict" reproducibility story in one
// place; consumers decorrelate by XORing distinct seeds into x.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// noisy flips `hit` with probability 1−Accuracy, deterministically per
// access.
func (e *Estimator) noisy(hit bool) bool {
	if e.keep == 0 {
		return hit
	}
	e.ctr++
	if Mix64(e.cfg.Seed^e.ctr)>>11 >= e.keep {
		return !hit
	}
	return hit
}

// EstimateNest predicts the affinity of every iteration set of one nest.
// Irregular references are skipped: the compiler cannot see through index
// arrays, which is exactly why irregular applications go through the
// inspector–executor path instead.
func (e *Estimator) EstimateNest(n *loop.Nest) []affinity.SetAffinity {
	sets := n.IterationSets(e.cfg.IterSetFrac)
	out := make([]affinity.SetAffinity, len(sets))
	amap := e.cfg.AMap
	shared := e.cfg.Org == cache.SharedSNUCA
	nodes := len(e.bankRegion)

	// The regular references, each with its array and the state of the
	// L1 spatial filter: an access in the same L1 line as the
	// reference's previous one stays in L1.
	type regularRef struct {
		ri     int
		array  *loop.Array
		lastL1 mem.Addr
		seen   bool
	}
	var regular []regularRef
	for r := range n.Refs {
		if ref := &n.Refs[r]; !ref.Irregular {
			regular = append(regular, regularRef{ri: r, array: ref.Array})
			e.model.cover(arrayEnd(ref.Array))
		}
	}

	mai := affinity.NewBuilder(amap.NumMCs())
	var cai *affinity.Builder
	if shared {
		cai = affinity.NewBuilder(e.cfg.Mesh.NumRegions())
	}
	// Iteration sets tile [0, Iterations()) in order, so one stepper
	// walks the whole nest.
	st := n.NewStepPlan().Stepper()
	for k, set := range sets {
		mai.Reset()
		if shared {
			cai.Reset()
		}
		var hits, total float64
		for flat := set.Lo; flat < set.Hi; flat++ {
			for j := range regular {
				rr := &regular[j]
				addr := rr.array.AddrOf(st.Subscript(rr.ri))
				var l1line mem.Addr
				if e.l1Pow2 {
					l1line = addr >> e.l1Shift
				} else {
					l1line = addr / mem.Addr(e.cfg.L1Line)
				}
				if rr.seen && l1line == rr.lastL1 {
					continue
				}
				rr.seen = true
				rr.lastL1 = l1line
				total++
				if e.noisy(e.model.access(uint64(addr))) {
					hits++
					if shared {
						cai.AddOne(e.bankRegion[amap.HomeBank(addr)%nodes])
					}
				} else {
					mai.AddOne(amap.MC(addr))
				}
			}
			st.Step()
		}
		sa := affinity.SetAffinity{
			MAI:    mai.Vector(),
			Alpha:  affinity.Alpha(hits, total),
			Weight: set.Len(),
		}
		if shared {
			sa.CAI = cai.Vector()
		}
		out[k] = sa
	}
	return out
}

// arrayEnd returns the address just past a's data, saturating where the
// declared size overflows the address space.
func arrayEnd(a *loop.Array) uint64 {
	size := a.SizeBytes()
	end := uint64(a.Base) + uint64(size)
	if size < 0 || end < uint64(a.Base) {
		return math.MaxUint64
	}
	return end
}

// EstimateProgram runs EstimateNest over every nest in program order,
// keeping the capacity model warm between nests.
func (e *Estimator) EstimateProgram(p *loop.Program) [][]affinity.SetAffinity {
	out := make([][]affinity.SetAffinity, len(p.Nests))
	for i, n := range p.Nests {
		out[i] = e.EstimateNest(n)
	}
	return out
}

// Reset clears the capacity model (cold estimation).
func (e *Estimator) Reset() {
	e.model.reset()
	e.ctr = 0
}

// AccuracyFor derives the paper-style per-application CME accuracy
// (76%–93%) deterministically from the application name, so experiments
// are reproducible without storing a table.
func AccuracyFor(app string) float64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(app); i++ {
		h ^= uint64(app[i])
		h *= 1099511628211
	}
	return 0.76 + 0.17*float64(Mix64(h)>>11)/(1<<53)
}
