package quantile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestKLLEmpty(t *testing.T) {
	s := NewKLL(128, 1)
	if _, err := s.Query(0.5); err == nil {
		t.Error("Query on empty sketch should error")
	}
	if _, err := s.Splits(4); err == nil {
		t.Error("Splits on empty sketch should error")
	}
}

func TestKLLSingleValue(t *testing.T) {
	s := NewKLL(128, 1)
	s.Insert(7.5)
	for _, phi := range []float64{0, 0.5, 1} {
		if got := mustQuery(t, s, phi); got != 7.5 {
			t.Errorf("Query(%v) = %v", phi, got)
		}
	}
}

func TestKLLExactExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewKLL(64, 2)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 50000; i++ {
		v := rng.NormFloat64()
		s.Insert(v)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if mustQuery(t, s, 0) != lo || mustQuery(t, s, 1) != hi {
		t.Error("extremes not exact")
	}
}

func TestKLLAccuracy(t *testing.T) {
	for name, gen := range map[string]func(*rand.Rand) float64{
		"uniform": func(r *rand.Rand) float64 { return r.Float64() },
		"normal":  func(r *rand.Rand) float64 { return r.NormFloat64() },
		"gradient-like": func(r *rand.Rand) float64 {
			v := r.ExpFloat64() * 0.01
			if r.Intn(2) == 0 {
				v = -v
			}
			return v
		},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			s := NewKLL(256, 4)
			xs := make([]float64, 60000)
			for i := range xs {
				xs[i] = gen(rng)
				s.Insert(xs[i])
			}
			sort.Float64s(xs)
			n := float64(len(xs))
			for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				got := mustQuery(t, s, phi)
				r := float64(trueRank(xs, got))
				// KLL with k=256 should land well within 2% rank error.
				if math.Abs(r-phi*n) > 0.02*n {
					lo := float64(sort.SearchFloat64s(xs, got)) + 1
					if phi*n >= lo && phi*n <= r {
						continue
					}
					t.Errorf("phi=%.2f: rank %v, want within %v of %v", phi, r, 0.02*n, phi*n)
				}
			}
		})
	}
}

func TestKLLSpaceBounded(t *testing.T) {
	s := NewKLL(128, 5)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500000; i++ {
		s.Insert(rng.NormFloat64())
	}
	// O(k log(n/k)): for k=128, n=5e5, a loose practical ceiling.
	if got := s.Retained(); got > 2000 {
		t.Errorf("retained %d items, want O(k log(n/k))", got)
	}
	if s.n != 500000 {
		t.Errorf("n = %d, want 500000", s.n)
	}
}

func TestKLLSplitsEqualPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewKLL(256, 8)
	xs := make([]float64, 40000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
		s.Insert(xs[i])
	}
	sort.Float64s(xs)
	const q = 8
	splits, err := s.Splits(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != q+1 {
		t.Fatalf("%d splits", len(splits))
	}
	want := float64(len(xs)) / q
	for i := 0; i < q; i++ {
		lo := trueRank(xs, splits[i])
		if i == 0 {
			lo = 0
		}
		hi := trueRank(xs, splits[i+1])
		if math.Abs(float64(hi-lo)-want) > 0.25*want {
			t.Errorf("bucket %d population %d, want ~%.0f", i, hi-lo, want)
		}
	}
}

func TestKLLDeterministicPerSeed(t *testing.T) {
	build := func(seed int64) *KLL {
		s := NewKLL(64, seed)
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 30000; i++ {
			s.Insert(rng.NormFloat64())
		}
		return s
	}
	a, b := build(1), build(1)
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		if mustQuery(t, a, phi) != mustQuery(t, b, phi) {
			t.Fatal("same seed, different answers")
		}
	}
}

func TestKLLPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewKLL(2) should panic")
			}
		}()
		NewKLL(2, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NaN insert should panic")
			}
		}()
		NewKLL(64, 0).Insert(math.NaN())
	}()
}

func TestGKAndKLLAgree(t *testing.T) {
	// Both sketches should land close to the true quantiles of the same
	// stream — a cross-validation of the two implementations.
	rng := rand.New(rand.NewSource(13))
	gk := New(0.005)
	kll := NewKLL(256, 14)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 0.1
		gk.Insert(xs[i])
		kll.Insert(xs[i])
	}
	sort.Float64s(xs)
	n := float64(len(xs))
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		g := float64(trueRank(xs, mustQuery(t, gk, phi)))
		k := float64(trueRank(xs, mustQuery(t, kll, phi)))
		if math.Abs(g-k) > 0.03*n {
			t.Errorf("phi=%v: GK rank %v and KLL rank %v disagree", phi, g, k)
		}
	}
}

func BenchmarkKLLInsert(b *testing.B) {
	s := NewKLL(128, 1)
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(vals[i&(1<<16-1)])
	}
}

func BenchmarkKLLSplits256(b *testing.B) {
	s := NewKLL(256, 3)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		s.Insert(rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Splits(256); err != nil {
			b.Fatal(err)
		}
	}
}
