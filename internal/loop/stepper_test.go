package loop

import (
	"math/rand"
	"testing"

	"locmap/internal/mem"
)

// randNest builds a random nest mixing affine and irregular references,
// including short/long coefficient vectors and negative strides.
func randNest(rng *rand.Rand) *Nest {
	dims := 1 + rng.Intn(4)
	n := &Nest{Name: "rand", Bounds: make([]int64, dims)}
	for d := range n.Bounds {
		n.Bounds[d] = int64(1 + rng.Intn(7))
	}
	arr := &Array{Name: "A", Base: 1 << 20, ElemSize: 8, Elems: 64 + int64(rng.Intn(512))}
	refs := 1 + rng.Intn(4)
	for i := 0; i < refs; i++ {
		r := Ref{Array: arr}
		if rng.Intn(4) == 0 {
			r.Irregular = true
			r.IndexArray = make([]int64, 1+rng.Intn(100))
			for j := range r.IndexArray {
				r.IndexArray[j] = int64(rng.Intn(int(arr.Elems)))
			}
		} else {
			nc := rng.Intn(dims + 2) // may be shorter or longer than dims
			r.Index.Const = int64(rng.Intn(32)) - 8
			r.Index.Coeffs = make([]int64, nc)
			for j := range r.Index.Coeffs {
				r.Index.Coeffs[j] = int64(rng.Intn(9)) - 4
			}
		}
		n.Refs = append(n.Refs, r)
	}
	return n
}

// TestStepperMatchesUnflatten checks the incremental stepper's addresses
// and affine subscripts against the reference Unflatten+Addr path over
// full walks of random nests.
func TestStepperMatchesUnflatten(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := randNest(rng)
		plan := n.NewStepPlan()
		st := plan.Stepper()
		var iv []int64
		total := n.Iterations()
		for flat := int64(0); flat < total; flat++ {
			if st.Flat() != flat {
				t.Fatalf("trial %d: stepper at %d, want %d", trial, st.Flat(), flat)
			}
			iv = n.Unflatten(iv, flat)
			for ri := range n.Refs {
				want := n.Refs[ri].Addr(iv, flat)
				if got := st.Addr(ri); got != want {
					t.Fatalf("trial %d flat %d ref %d: stepper %#x, direct %#x (bounds %v coeffs %v)",
						trial, flat, ri, got, want, n.Bounds, n.Refs[ri].Index.Coeffs)
				}
				if r := &n.Refs[ri]; !r.Irregular {
					if got, want := st.Subscript(ri), r.Index.Eval(iv); got != want {
						t.Fatalf("trial %d flat %d ref %d: subscript %d, direct %d", trial, flat, ri, got, want)
					}
				}
			}
			st.Step()
		}
	}
}

// TestStepperSeek checks that SeekTo to an arbitrary flat id followed by
// Steps agrees with the direct path — the jump-between-iteration-sets
// pattern the simulator uses.
func TestStepperSeek(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := randNest(rng)
		plan := n.NewStepPlan()
		st := plan.Stepper()
		total := n.Iterations()
		var iv []int64
		for jump := 0; jump < 10; jump++ {
			lo := rng.Int63n(total)
			st.SeekTo(lo)
			span := rng.Int63n(total - lo + 1)
			for flat := lo; flat < lo+span; flat++ {
				iv = n.Unflatten(iv, flat)
				for ri := range n.Refs {
					if got, want := st.Addr(ri), n.Refs[ri].Addr(iv, flat); got != want {
						t.Fatalf("trial %d seek %d flat %d ref %d: %#x != %#x", trial, lo, flat, ri, got, want)
					}
				}
				st.Step()
			}
		}
	}
}

// TestStepperBoundBuffers checks the Bind path used by the simulator:
// steppers carved from shared backing arrays behave identically.
func TestStepperBoundBuffers(t *testing.T) {
	n := &Nest{
		Bounds: []int64{3, 4, 5},
		Refs: []Ref{
			{Array: &Array{Base: 0, ElemSize: 4, Elems: 1000}, Index: Affine{Coeffs: []int64{20, 5, 1}}},
			{Array: &Array{Base: 1 << 16, ElemSize: 8, Elems: 500}, Index: Affine{Const: 3, Coeffs: []int64{-1, 2}}},
		},
	}
	plan := n.NewStepPlan()
	ivBack := make([]int64, 2*plan.Dims())
	valBack := make([]int64, 2*plan.Refs())
	var a, b Stepper
	plan.Bind(&a, ivBack[:plan.Dims()], valBack[:plan.Refs()])
	plan.Bind(&b, ivBack[plan.Dims():], valBack[plan.Refs():])
	b.SeekTo(7)
	ref := plan.Stepper()
	for flat := int64(0); flat < n.Iterations(); flat++ {
		for ri := range n.Refs {
			if a.Addr(ri) != ref.Addr(ri) {
				t.Fatalf("bound stepper diverged at flat %d", flat)
			}
		}
		a.Step()
		ref.Step()
	}
	// b must have been unaffected by a's walk.
	var want mem.Addr
	{
		iv := n.Unflatten(nil, 7)
		want = n.Refs[0].Addr(iv, 7)
	}
	if b.Addr(0) != want {
		t.Fatalf("sibling stepper state clobbered: %#x != %#x", b.Addr(0), want)
	}
}
