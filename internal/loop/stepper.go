package loop

import (
	"locmap/internal/mem"
)

// StepPlan precomputes, for one nest, the per-reference subscript deltas
// of a single flat-iteration step. Walking a nest in flat order changes
// the iteration vector like an odometer: the innermost dimension
// increments, and on wrap the carry propagates outward. For an affine
// subscript the resulting value change depends only on the dimension the
// carry stops at:
//
//	delta(d) = C_d − Σ_{j>d} C_j·(B_j−1)
//
// (the stopping dimension gains one, every inner dimension falls from
// B_j−1 back to 0). Precomputing delta(d) per reference turns address
// generation for consecutive iterations into one add per reference —
// no Unflatten, no affine re-evaluation. Irregular (index-array)
// references keep their table lookup; their delta rows are zero.
//
// A plan is immutable and shared by all Steppers over the nest.
type StepPlan struct {
	nest   *Nest
	dims   int
	deltas []int64 // len(nest.Refs) × dims, row-major by reference
}

// NewStepPlan builds the step plan for the nest.
func (n *Nest) NewStepPlan() *StepPlan {
	dims := len(n.Bounds)
	p := &StepPlan{
		nest:   n,
		dims:   dims,
		deltas: make([]int64, len(n.Refs)*dims),
	}
	for ri := range n.Refs {
		r := &n.Refs[ri]
		if r.Irregular {
			continue
		}
		coeff := func(d int) int64 {
			if d < len(r.Index.Coeffs) {
				return r.Index.Coeffs[d]
			}
			return 0
		}
		for d := 0; d < dims; d++ {
			delta := coeff(d)
			for j := d + 1; j < dims; j++ {
				delta -= coeff(j) * (n.Bounds[j] - 1)
			}
			p.deltas[ri*dims+d] = delta
		}
	}
	return p
}

// Refs returns the number of references the plan's steppers serve.
func (p *StepPlan) Refs() int { return len(p.nest.Refs) }

// Dims returns the nest depth.
func (p *StepPlan) Dims() int { return p.dims }

// Stepper walks one nest position (a flat iteration id) and yields the
// address of each reference there. SeekTo performs the full iteration-
// vector and subscript evaluation; Step advances to the next flat id
// incrementally. Each concurrent walker (one per simulated core) owns a
// Stepper; all share the plan.
type Stepper struct {
	plan *StepPlan
	flat int64
	iv   []int64 // current iteration vector, len = plan.dims
	val  []int64 // current affine subscript values, len = len(nest.Refs)
}

// Stepper returns a stepper positioned at flat id 0, with freshly
// allocated buffers.
func (p *StepPlan) Stepper() *Stepper {
	st := &Stepper{}
	p.Bind(st, make([]int64, p.dims), make([]int64, len(p.nest.Refs)))
	return st
}

// Bind attaches a stepper to the plan using caller-provided buffers (iv
// needs p.Dims() elements, val needs p.Refs()), so many steppers can be
// carved from two backing arrays. The stepper is positioned at flat 0.
func (p *StepPlan) Bind(st *Stepper, iv, val []int64) {
	st.plan = p
	st.iv = iv[:p.dims]
	st.val = val[:len(p.nest.Refs)]
	st.SeekTo(0)
}

// Flat returns the stepper's current flat iteration id.
func (st *Stepper) Flat() int64 { return st.flat }

// IV returns the current iteration vector. The slice aliases stepper
// state and is only valid until the next SeekTo/Step.
func (st *Stepper) IV() []int64 { return st.iv }

// SeekTo positions the stepper at the given flat id, re-deriving the
// iteration vector and every affine subscript from scratch. Use it to
// jump between iteration sets; Step covers the consecutive case.
func (st *Stepper) SeekTo(flat int64) {
	st.flat = flat
	n := st.plan.nest
	f := flat
	for d := st.plan.dims - 1; d >= 0; d-- {
		st.iv[d] = f % n.Bounds[d]
		f /= n.Bounds[d]
	}
	for ri := range n.Refs {
		if !n.Refs[ri].Irregular {
			st.val[ri] = n.Refs[ri].Index.Eval(st.iv)
		}
	}
}

// Step advances to the next flat id: an odometer increment of the
// iteration vector plus one precomputed delta add per reference.
func (st *Stepper) Step() {
	st.flat++
	p := st.plan
	d := p.dims - 1
	for d >= 0 {
		st.iv[d]++
		if st.iv[d] < p.nest.Bounds[d] {
			break
		}
		st.iv[d] = 0
		d--
	}
	if d < 0 {
		// Wrapped past the last iteration; re-derive (callers only do
		// this transiently at a nest boundary).
		st.SeekTo(st.flat)
		return
	}
	for ri := range st.val {
		st.val[ri] += p.deltas[ri*p.dims+d]
	}
}

// Addr returns the byte address reference ri accesses at the current
// position. It is equivalent to nest.Refs[ri].Addr(st.IV(), st.Flat()).
func (st *Stepper) Addr(ri int) mem.Addr {
	r := &st.plan.nest.Refs[ri]
	if r.Irregular {
		if len(r.IndexArray) == 0 {
			return r.Array.AddrOf(0)
		}
		return r.Array.AddrOf(r.IndexArray[st.flat%int64(len(r.IndexArray))])
	}
	return r.Array.AddrOf(st.val[ri])
}

// Subscript returns affine reference ri's subscript at the current
// position, the element index Addr passes to Array.AddrOf. A caller
// walking only affine references keeps their arrays at hand, so this
// inlines to one load.
func (st *Stepper) Subscript(ri int) int64 { return st.val[ri] }
