package gradient

import (
	"math"
	"math/rand"
	"testing"
)

// mapSum is the reference for Terms.SumInto: the terms added one by one into a
// hash map, the regularizer added per key, read out through FromMap.
func mapSum(dim uint64, keys []uint64, vals []float64, theta []float64, lambda float64) *Sparse {
	acc := map[uint64]float64{}
	for i, k := range keys {
		acc[k] += vals[i]
	}
	if lambda != 0 {
		for k := range acc {
			acc[k] += float64(lambda * theta[k])
		}
	}
	return FromMap(dim, acc)
}

// requireTermsMatchMap feeds the same terms to a Terms and to mapSum and
// demands equal keys and bit-equal values, twice: summed into a fresh
// gradient, and into a dirty one whose storage is longer than the sum and
// holds stale entries. It returns the fresh one.
func requireTermsMatchMap(t *testing.T, name string, dim uint64, keys []uint64, vals []float64, theta []float64, lambda float64) *Sparse {
	t.Helper()
	terms := GetTerms()
	defer PutTerms(terms)
	want := mapSum(dim, keys, vals, theta, lambda)
	dirty := &Sparse{Dim: dim + 3, Keys: make([]uint64, len(want.Keys)+5), Values: make([]float64, len(want.Keys)+5)}
	for i := range dirty.Keys {
		dirty.Keys[i], dirty.Values[i] = uint64(i)*3+1, -7
	}
	var got Sparse
	for _, dst := range []*Sparse{&got, dirty} {
		for i, k := range keys {
			terms.Add(k, vals[i])
		}
		terms.SumInto(dst, dim, theta, lambda)
		if dst.Dim != want.Dim || len(dst.Keys) != len(want.Keys) || len(dst.Values) != len(want.Keys) {
			t.Fatalf("%s: dim %d with %d keys / %d values, map gives dim %d with %d keys",
				name, dst.Dim, len(dst.Keys), len(dst.Values), want.Dim, len(want.Keys))
		}
		for i, k := range want.Keys {
			if dst.Keys[i] != k || math.Float64bits(dst.Values[i]) != math.Float64bits(want.Values[i]) {
				t.Fatalf("%s: entry %d is (%d, %v), map gives (%d, %v)", name, i, dst.Keys[i], dst.Values[i], k, want.Values[i])
			}
		}
	}
	var empty Sparse
	if terms.SumInto(&empty, dim, theta, lambda); empty.NNZ() != 0 {
		t.Fatalf("%s: SumInto left %d entries behind", name, empty.NNZ())
	}
	return &got
}

// TestTermsMatchMap sweeps the pass count — one digit, two, three, and the
// six of a full 64-bit key space, where theta cannot exist and the
// regularizer is off — over term lists whose sums depend on their order.
func TestTermsMatchMap(t *testing.T) {
	for _, c := range []struct {
		name     string
		dim      uint64
		distinct int // keys drawn from this many distinct values
		n        int
		lambda   float64
	}{
		{"dim 1", 1, 1, 50, 0.01},
		{"one pass", 2000, 300, 5000, 0.01},
		{"two passes", 2_000_000, 4000, 30000, 0.01},
		{"two passes, no regularizer", 2_000_000, 4000, 30000, 0},
		{"three passes", 1<<22 + 1, 500, 4000, 0.01},
		{"four passes, wide keys", 1 << 40, 700, 6000, 0},
		{"six passes, wide keys", math.MaxUint64, 700, 6000, 0},
		{"no terms", 100, 1, 0, 0.01},
	} {
		rng := rand.New(rand.NewSource(int64(c.n)))
		pool := make([]uint64, c.distinct)
		for i := range pool {
			pool[i] = rng.Uint64() % c.dim
		}
		pool[0] = c.dim - 1 // the largest key there is
		keys, vals := make([]uint64, c.n), make([]float64, c.n)
		for i := range keys {
			keys[i] = pool[rng.Intn(len(pool))]
			// Magnitudes twelve decades apart: adding a run in any other
			// order changes its last bits.
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)))
		}
		var theta []float64
		if c.lambda != 0 {
			theta = make([]float64, c.dim)
			for i := range theta {
				theta[i] = rng.NormFloat64()
			}
		}
		g := requireTermsMatchMap(t, c.name, c.dim, keys, vals, theta, c.lambda)
		if c.n > 0 && g.Keys[len(g.Keys)-1] != c.dim-1 {
			t.Errorf("%s: last key %d, want dim-1", c.name, g.Keys[len(g.Keys)-1])
		}
	}
}

// TestTermsZeros pins the zero rules: a run is summed from +0.0, so −0.0
// terms and exact cancellations come to +0.0 and are dropped, unless the
// regularizer makes the value nonzero; a nonzero run it cancels is dropped.
func TestTermsZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	keys := []uint64{4, 2, 4, 7, 2, 9}
	vals := []float64{1.5, negZero, -1.5, 3, negZero, -0.5}
	theta := make([]float64, 10)
	theta[2], theta[4], theta[9] = 8, -2, 5

	g := requireTermsMatchMap(t, "λ=0", 10, keys, vals, nil, 0)
	if len(g.Keys) != 2 || g.Get(7) != 3 || g.Get(9) != -0.5 {
		t.Errorf("λ=0: got %v %v, want keys 7 and 9 alone", g.Keys, g.Values)
	}
	g = requireTermsMatchMap(t, "λ=0.1", 10, keys, vals, theta, 0.1)
	lambda := 0.1
	if len(g.Keys) != 3 || g.Get(2) != lambda*theta[2] || g.Get(4) != lambda*theta[4] || g.Get(9) != 0 {
		t.Errorf("λ=0.1: got %v %v, want keys 2, 4 (rescued) and 7, and 9 cancelled by λ·θ", g.Keys, g.Values)
	}
}

// TestTermsWarmAllocations holds the allocation contract of a build into a
// fresh gradient (what model.BatchGradient returns): once the scratch has
// its size, it allocates the gradient's two slices and nothing else,
// whatever list the scratch was last sized by. The Terms is the test's own,
// not the pool's, which under -race drops what it is handed at random.
func TestTermsWarmAllocations(t *testing.T) {
	keys, vals := termsInput(20000)
	terms := new(Terms)
	build := func(n int) {
		for i, k := range keys[:n] {
			terms.Add(k, vals[i])
		}
		terms.SumInto(new(Sparse), 1<<21, nil, 0)
	}
	build(len(keys))
	for _, n := range []int{len(keys), 100, len(keys)} {
		if allocs := testing.AllocsPerRun(20, func() { build(n) }); allocs > 3 {
			t.Errorf("a warm build of %d terms allocates %v times, want at most 3", n, allocs)
		}
	}
}

// TestSumIntoZeroAllocWarm is the allocation contract of a worker's
// steady-state build: into a gradient that already holds a sum of its size,
// a warm SumInto allocates nothing, whatever the scratch or the gradient
// was last sized by.
func TestSumIntoZeroAllocWarm(t *testing.T) {
	keys, vals := termsInput(20000)
	terms := new(Terms)
	var g Sparse
	build := func(n int) {
		for i, k := range keys[:n] {
			terms.Add(k, vals[i])
		}
		terms.SumInto(&g, 1<<21, nil, 0)
	}
	build(len(keys))
	for _, n := range []int{len(keys), 100, len(keys)} {
		if allocs := testing.AllocsPerRun(20, func() { build(n) }); allocs != 0 {
			t.Errorf("a warm build of %d terms into a warm gradient allocates %v times, want 0", n, allocs)
		}
	}
}

// termsInput is n seeded terms over 2²¹ keys.
func termsInput(n int) ([]uint64, []float64) {
	rng := rand.New(rand.NewSource(1))
	keys, vals := make([]uint64, n), make([]float64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(rng.Intn(1<<21)), rng.NormFloat64()
	}
	return keys, vals
}
