package gradient

import (
	"math"
	"math/rand"
	"testing"
)

// mapSum is the reference for Scatter.SumInto: the terms added one by one
// into a hash map, the regularizer added per key, read out through FromMap.
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

// requireScatterMatchesMap feeds the same terms to s, sized for dim, and to
// mapSum and demands equal keys and bit-equal values, twice: summed into a
// fresh gradient, and into a dirty one whose storage is longer than the sum
// and holds stale entries. After every sum s must be all-zero, the state the
// pool hands out. It returns the fresh gradient.
func requireScatterMatchesMap(t *testing.T, name string, s *Scatter, dim uint64, keys []uint64, vals []float64, theta []float64, lambda float64) *Sparse {
	t.Helper()
	s.resize(dim)
	want := mapSum(dim, keys, vals, theta, lambda)
	dirty := &Sparse{Dim: dim + 3, Keys: make([]uint64, len(want.Keys)+5), Values: make([]float64, len(want.Keys)+5)}
	for i := range dirty.Keys {
		dirty.Keys[i], dirty.Values[i] = uint64(i)*3+1, -7
	}
	var got Sparse
	for _, dst := range []*Sparse{&got, dirty} {
		for i, k := range keys {
			s.Add(k, vals[i])
		}
		s.SumInto(dst, theta, lambda)
		requireAllZero(t, name, s)
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
	if s.SumInto(&empty, theta, lambda); empty.NNZ() != 0 || empty.Dim != dim {
		t.Fatalf("%s: SumInto left %d entries behind (dim %d)", name, empty.NNZ(), empty.Dim)
	}
	return &got
}

// requireAllZero demands that every accumulator entry and every mark of s,
// up to its capacity, is zero and that +0.0 is what the entries hold.
func requireAllZero(t *testing.T, name string, s *Scatter) {
	t.Helper()
	if s.n != 0 {
		t.Fatalf("%s: %d keys still counted after SumInto", name, s.n)
	}
	for i, v := range s.acc[:cap(s.acc)] {
		if math.Float64bits(v) != 0 {
			t.Fatalf("%s: acc[%d] = %v after SumInto", name, i, v)
		}
	}
	for _, words := range [][]uint64{s.marked[:cap(s.marked)], s.summary[:cap(s.summary)]} {
		for i, w := range words {
			if w != 0 {
				t.Fatalf("%s: bitmap word %d = %#x after SumInto", name, i, w)
			}
		}
	}
}

// TestScatterMatchesMap sweeps the dimension — one key, one bitmap word, a
// summary word and past it, and the benchmark's 2·10⁶ — over term lists
// whose sums depend on their order, with key 0 and key dim−1 always among
// the keys. One scatter serves every case, so it is resized down and up as
// a pooled one is.
func TestScatterMatchesMap(t *testing.T) {
	s := new(Scatter)
	for _, c := range []struct {
		name     string
		dim      uint64
		distinct int // keys drawn from this many distinct values
		n        int
		lambda   float64
	}{
		{"dim 1", 1, 1, 50, 0.01},
		{"dim 2e6", 2_000_000, 4000, 30000, 0.01},
		{"one word", 64, 40, 500, 0.01},
		{"one summary word and a key", 4097, 300, 5000, 0.01},
		{"dim 2e6, no regularizer", 2_000_000, 4000, 30000, 0},
		{"dim 2^22+1", 1<<22 + 1, 500, 4000, 0.01},
		{"dim 2000", 2000, 300, 5000, 0},
		{"no terms", 100, 2, 0, 0.01},
	} {
		rng := rand.New(rand.NewSource(int64(c.n)))
		pool := make([]uint64, c.distinct)
		for i := range pool {
			pool[i] = rng.Uint64() % c.dim
		}
		pool[0], pool[len(pool)-1] = c.dim-1, 0 // the largest key there is, and the smallest
		keys, vals := make([]uint64, c.n), make([]float64, c.n)
		for i := range keys {
			keys[i] = pool[rng.Intn(len(pool))]
			// Magnitudes twelve decades apart: adding a key's terms in any
			// other order changes its last bits.
			vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)))
		}
		var theta []float64
		if c.lambda != 0 {
			theta = make([]float64, c.dim)
			for i := range theta {
				theta[i] = rng.NormFloat64()
			}
		}
		g := requireScatterMatchesMap(t, c.name, s, c.dim, keys, vals, theta, c.lambda)
		if c.n > 0 && (g.Keys[0] != 0 || g.Keys[len(g.Keys)-1] != c.dim-1) {
			t.Errorf("%s: keys run %d…%d, want 0…dim-1", c.name, g.Keys[0], g.Keys[len(g.Keys)-1])
		}
	}
}

// TestScatterZeros pins the zero rules: a key's sum starts at +0.0, so −0.0
// terms and exact cancellations come to +0.0 and are dropped, unless the
// regularizer makes the value nonzero; a nonzero sum it cancels is dropped.
func TestScatterZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	keys := []uint64{4, 2, 4, 7, 2, 9, 0}
	vals := []float64{1.5, negZero, -1.5, 3, negZero, -0.5, negZero}
	theta := make([]float64, 10)
	theta[2], theta[4], theta[9] = 8, -2, 5
	s := new(Scatter)

	g := requireScatterMatchesMap(t, "λ=0", s, 10, keys, vals, nil, 0)
	if len(g.Keys) != 2 || g.Get(7) != 3 || g.Get(9) != -0.5 {
		t.Errorf("λ=0: got %v %v, want keys 7 and 9 alone", g.Keys, g.Values)
	}
	g = requireScatterMatchesMap(t, "λ=0.1", s, 10, keys, vals, theta, 0.1)
	lambda := 0.1
	if len(g.Keys) != 3 || g.Get(2) != lambda*theta[2] || g.Get(4) != lambda*theta[4] || g.Get(9) != 0 {
		t.Errorf("λ=0.1: got %v %v, want keys 2, 4 (rescued) and 7, and 9 cancelled by λ·θ", g.Keys, g.Values)
	}
}

// TestScatterWarmAllocations holds the allocation contract of a build into a
// fresh gradient (what model.BatchGradient returns): once the scratch has
// its size, it allocates the gradient's two slices and nothing else,
// whatever list the gradient was last sized by. The Scatter is the test's
// own, not the pool's, which under -race drops what it is handed at random.
// Skipped under -race: the detector's instrumentation allocates.
func TestScatterWarmAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	keys, vals := termsInput(20000)
	s := new(Scatter)
	s.resize(1 << 21)
	build := func(n int) {
		for i, k := range keys[:n] {
			s.Add(k, vals[i])
		}
		s.SumInto(new(Sparse), nil, 0)
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
// a warm SumInto allocates nothing, whatever the gradient was last sized
// by.
func TestSumIntoZeroAllocWarm(t *testing.T) {
	keys, vals := termsInput(20000)
	s := new(Scatter)
	s.resize(1 << 21)
	var g Sparse
	build := func(n int) {
		for i, k := range keys[:n] {
			s.Add(k, vals[i])
		}
		s.SumInto(&g, nil, 0)
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
