package gradient

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func sample() *Sparse {
	g := NewSparse(100, 4)
	g.Append(3, -0.5)
	g.Append(10, 1.25)
	g.Append(42, 0.01)
	return g
}

func TestBasicAccessors(t *testing.T) {
	g := sample()
	if g.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", g.NNZ())
	}
	if got := g.Sparsity(); got != 0.03 {
		t.Errorf("Sparsity = %v, want 0.03", got)
	}
	if got := g.Get(10); got != 1.25 {
		t.Errorf("Get(10) = %v", got)
	}
	if got := g.Get(11); got != 0 {
		t.Errorf("Get(11) = %v, want 0", got)
	}
	if got := g.MaxAbs(); got != 1.25 {
		t.Errorf("MaxAbs = %v", got)
	}
}

func TestValidate(t *testing.T) {
	g := sample()
	if err := g.Validate(); err != nil {
		t.Errorf("valid gradient rejected: %v", err)
	}
	bad := &Sparse{Dim: 10, Keys: []uint64{1, 1}, Values: []float64{1, 2}}
	if bad.Validate() == nil {
		t.Error("duplicate keys accepted")
	}
	bad = &Sparse{Dim: 10, Keys: []uint64{5, 3}, Values: []float64{1, 2}}
	if bad.Validate() == nil {
		t.Error("descending keys accepted")
	}
	bad = &Sparse{Dim: 10, Keys: []uint64{10}, Values: []float64{1}}
	if bad.Validate() == nil {
		t.Error("key >= dim accepted")
	}
	bad = &Sparse{Dim: 10, Keys: []uint64{1}, Values: []float64{math.NaN()}}
	if bad.Validate() == nil {
		t.Error("NaN value accepted")
	}
	bad = &Sparse{Dim: 10, Keys: []uint64{1, 2}, Values: []float64{1}}
	if bad.Validate() == nil {
		t.Error("length mismatch accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := sample()
	c := g.Clone()
	c.Values[0] = 99
	c.Keys[0] = 0
	if g.Values[0] == 99 || g.Keys[0] == 0 {
		t.Error("Clone shares storage")
	}
}

func TestAppendPanicsOnDisorder(t *testing.T) {
	g := sample()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.Append(42, 1)
}

func TestDenseRoundTrip(t *testing.T) {
	g := sample()
	d := g.ToDense()
	if len(d) != 100 {
		t.Fatalf("dense len %d", len(d))
	}
	back := FromDense(d, 0)
	if back.NNZ() != g.NNZ() {
		t.Fatalf("NNZ %d, want %d", back.NNZ(), g.NNZ())
	}
	for i := range g.Keys {
		if back.Keys[i] != g.Keys[i] || back.Values[i] != g.Values[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestFromDenseThreshold(t *testing.T) {
	d := []float64{0, 0.001, -0.5, 0.3}
	g := FromDense(d, 0.1)
	if g.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (threshold should drop 0.001)", g.NNZ())
	}
}

func TestFromMap(t *testing.T) {
	g := FromMap(50, map[uint64]float64{7: 1.5, 3: -2, 20: 0, 40: 0.25})
	if g.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 (zero dropped)", g.NNZ())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Get(3) != -2 || g.Get(7) != 1.5 || g.Get(40) != 0.25 {
		t.Error("values wrong")
	}
}

func TestAccumulator(t *testing.T) {
	acc := NewAccumulator(20)
	a := FromMap(20, map[uint64]float64{1: 1, 5: 2})
	b := FromMap(20, map[uint64]float64{5: 3, 9: -1})
	if err := acc.Add(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(b, 2); err != nil {
		t.Fatal(err)
	}
	sum := acc.Sum()
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	if sum.Get(1) != 1 || sum.Get(5) != 8 || sum.Get(9) != -2 {
		t.Errorf("sum wrong: %v %v", sum.Keys, sum.Values)
	}
	// Accumulator must be clean after Sum.
	empty := acc.Sum()
	if empty.NNZ() != 0 {
		t.Errorf("accumulator not reset: %d entries", empty.NNZ())
	}
}

func TestAccumulatorCancellation(t *testing.T) {
	acc := NewAccumulator(10)
	a := FromMap(10, map[uint64]float64{2: 5})
	b := FromMap(10, map[uint64]float64{2: -5})
	_ = acc.Add(a, 1)
	_ = acc.Add(b, 1)
	sum := acc.Sum()
	if sum.NNZ() != 0 {
		t.Errorf("cancelled entry should vanish, got %d entries", sum.NNZ())
	}
	// And the slot must be reusable afterwards.
	_ = acc.Add(a, 1)
	if got := acc.Sum().Get(2); got != 5 {
		t.Errorf("slot after cancellation = %v, want 5", got)
	}
}

func TestAccumulatorDimMismatch(t *testing.T) {
	acc := NewAccumulator(10)
	if err := acc.Add(NewSparse(11, 0), 1); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestQuickAccumulatorMatchesDense(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const dim = 64
		acc := NewAccumulator(dim)
		want := make([]float64, dim)
		for w := 0; w < 4; w++ {
			m := map[uint64]float64{}
			for i := 0; i < 10; i++ {
				k := uint64(rng.Intn(dim))
				v := rng.NormFloat64()
				m[k] += v
			}
			g := FromMap(dim, m)
			if err := acc.Add(g, 0.5); err != nil {
				return false
			}
			for i, k := range g.Keys {
				want[k] += g.Values[i] * 0.5
			}
		}
		sum := acc.Sum()
		for k, v := range want {
			if math.Abs(sum.Get(uint64(k))-v) > 1e-12 {
				return false
			}
		}
		return sum.Validate() == nil
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

// denseSum is the reference the Accumulator must match bit for bit: the
// gradients added one after another into a dense vector, then the nonzero
// entries read back in key order.
func denseSum(dim uint64, grads []*Sparse, weights []float64) *Sparse {
	dense := make([]float64, dim)
	for i, g := range grads {
		for j, k := range g.Keys {
			dense[k] += float64(g.Values[j] * weights[i]) // the conversion rules out a fused multiply-add
		}
	}
	return FromDense(dense, 0)
}

// zipfGradient draws nnz distinct Zipf-distributed keys, so a few keys
// appear in nearly every gradient and most in one, the shape of a sparse
// model's worker gradients.
func zipfGradient(rng *rand.Rand, dim uint64, nnz int) *Sparse {
	z := rand.NewZipf(rng, 1.05, 1, dim-1)
	m := make(map[uint64]float64, nnz)
	for len(m) < nnz {
		m[z.Uint64()] = rng.NormFloat64()
	}
	return FromMap(dim, m)
}

func sameBits(a, b *Sparse) bool {
	if a.Dim != b.Dim || len(a.Keys) != len(b.Keys) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// TestAccumulatorBitIdenticalToDense: for every fan-in the trainer and the
// Fig. 11 sweep use, the merged sum equals sequential dense adds bit for
// bit — float addition is not associative, so this pins the order equal
// keys are added in (Add order). The inputs overlap heavily (Zipf keys),
// carry unequal weights, and include an empty gradient and exact
// cancellations.
func TestAccumulatorBitIdenticalToDense(t *testing.T) {
	const dim = 1 << 14
	for _, k := range []int{1, 2, 4, 8, 50} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(k)))
			acc := NewAccumulator(dim)
			for round := 0; round < 3; round++ { // Sum resets; later rounds reuse the scratch
				grads := make([]*Sparse, k)
				weights := make([]float64, k)
				for i := range grads {
					grads[i] = zipfGradient(rng, dim, 200+rng.Intn(800))
					weights[i] = 1 / float64(1+rng.Intn(k))
				}
				if k >= 4 {
					grads[1] = NewSparse(dim, 0)
					// grads[3] cancels grads[2] exactly wherever their keys meet.
					grads[3] = grads[2].Clone()
					for j := range grads[3].Values {
						grads[3].Values[j] = -grads[3].Values[j]
					}
					weights[3] = weights[2]
				}
				for i, g := range grads {
					if err := acc.Add(g, weights[i]); err != nil {
						t.Fatal(err)
					}
				}
				got, want := acc.Sum(), denseSum(dim, grads, weights)
				if err := got.Validate(); err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("round %d: merged sum (%d entries) differs from sequential dense adds (%d entries)",
						round, got.NNZ(), want.NNZ())
				}
			}
		})
	}
}

// TestAccumulatorEmpty: no inputs, and only empty inputs, sum to an empty
// gradient of the accumulator's dimension.
func TestAccumulatorEmpty(t *testing.T) {
	acc := NewAccumulator(7)
	if s := acc.Sum(); s.Dim != 7 || s.NNZ() != 0 {
		t.Errorf("sum of nothing: dim %d, %d entries", s.Dim, s.NNZ())
	}
	for i := 0; i < 3; i++ {
		if err := acc.Add(NewSparse(7, 0), 1); err != nil {
			t.Fatal(err)
		}
	}
	if s := acc.Sum(); s.Dim != 7 || s.NNZ() != 0 {
		t.Errorf("sum of empties: dim %d, %d entries", s.Dim, s.NNZ())
	}
}

// TestAccumulatorReadsAtAdd documents Add's contract: the accumulator reads
// the gradient before Add returns, so a caller that reuses a decode buffer
// may overwrite it right after Add, and Sum's result shares no storage with
// the inputs (it is the accumulator's own; see TestAccumulatorSumLifetime).
func TestAccumulatorReadsAtAdd(t *testing.T) {
	acc := NewAccumulator(10)
	g := FromMap(10, map[uint64]float64{3: 1})
	if err := acc.Add(g, 1); err != nil {
		t.Fatal(err)
	}
	g.Keys[0], g.Values[0] = 4, 7 // the buffer is the caller's again
	sum := acc.Sum()
	if got := sum.Get(3); got != 1 || sum.NNZ() != 1 {
		t.Errorf("Sum = %v at keys %v; Add reads g at once, so it should hold the value present at Add time (1 at key 3)",
			sum.Values, sum.Keys)
	}
	g.Values[0] = 9
	if got := sum.Get(3); got != 1 {
		t.Errorf("Sum's result aliases its input: %v after the input changed", got)
	}
	if again := acc.Sum(); again.NNZ() != 0 {
		t.Errorf("Sum kept %d entries of an earlier input", again.NNZ())
	}
}

// TestAccumulatorSumLifetime pins Sum's contract: the result is the
// accumulator's own buffer, valid until the next Sum, so a warm round
// allocates nothing and a caller that keeps a sum across rounds clones it.
// The allocation count skips under -race, where sync.Pool drops the
// borrowed scatter at random; the sums are still checked.
func TestAccumulatorSumLifetime(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const dim = 1000
	for _, w := range []int{1, 2, 5} {
		acc := NewAccumulator(dim)
		round := func() (*Sparse, *Sparse) {
			grads, weights := make([]*Sparse, w), make([]float64, w)
			for i := range grads {
				grads[i], weights[i] = zipfGradient(rng, dim, 200), 1/float64(w)
				if err := acc.Add(grads[i], weights[i]); err != nil {
					t.Fatal(err)
				}
			}
			return acc.Sum(), denseSum(dim, grads, weights)
		}
		first, want := round()
		kept := first.Clone()
		second, want2 := round()
		for _, c := range []struct {
			name      string
			got, want *Sparse
		}{{"the kept clone of round 1", kept, want}, {"round 2", second, want2}} {
			if !slices.Equal(c.got.Keys, c.want.Keys) || !slices.Equal(c.got.Values, c.want.Values) {
				t.Errorf("W=%d: %s differs from the dense sum", w, c.name)
			}
		}
		if raceEnabled {
			continue // the detector makes sync.Pool drop the scratch at random
		}
		grads := make([]*Sparse, w)
		for i := range grads {
			grads[i] = zipfGradient(rng, dim, 200)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for _, g := range grads {
				_ = acc.Add(g, 1) // same dim: cannot fail
			}
			acc.Sum()
		}); allocs != 0 {
			t.Errorf("W=%d: a warm Add…Sum round allocates %v times, want 0", w, allocs)
		}
	}
}

// BenchmarkAccumulate is the driver's per-round sum at the end-to-end
// benchmark's shape — W worker gradients of 40k Zipf keys over 2M
// dimensions — at the tree driver's fan-in, the star's and Fig. 11's
// largest. ns/nnz is per input nonzero, the unit of the benchmark's
// gradient.accumulate_ns_per_nnz.
func BenchmarkAccumulate(b *testing.B) {
	const dim, nnz = 2_000_000, 40_000
	for _, w := range []int{2, 4, 50} {
		rng := rand.New(rand.NewSource(1))
		grads := make([]*Sparse, w)
		for i := range grads {
			grads[i] = zipfGradient(rng, dim, nnz)
		}
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			acc := NewAccumulator(dim)
			sum := func() {
				for _, g := range grads {
					if err := acc.Add(g, 1/float64(w)); err != nil {
						b.Fatal(err)
					}
				}
				acc.Sum()
			}
			sum() // size the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w*nnz), "ns/nnz")
		})
	}
}
