package quantile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// trueRank returns the rank (1-based) of the largest element <= v in sorted xs.
func trueRank(xs []float64, v float64) int {
	return sort.SearchFloat64s(xs, math.Nextafter(v, math.Inf(1)))
}

// mustQuery is s.Query for a sketch the test knows is non-empty.
func mustQuery(t *testing.T, s Sketch, phi float64) float64 {
	t.Helper()
	v, err := s.Query(phi)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkEps verifies every queried quantile is within eps*n ranks of truth.
func checkEps(t *testing.T, s *GK, sorted []float64, eps float64) {
	t.Helper()
	n := float64(len(sorted))
	for _, phi := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := mustQuery(t, s, phi)
		r := float64(trueRank(sorted, got))
		target := math.Ceil(phi * n)
		if phi == 0 {
			target = 1
		}
		// got's possible rank range is [trueRank of first equal elem, r];
		// allow eps*n + 1 slop for ties/rounding.
		if math.Abs(r-target) > eps*n+1 {
			lo := float64(sort.SearchFloat64s(sorted, got)) + 1
			if target >= lo && target <= r {
				continue // within the tie range
			}
			t.Errorf("phi=%.2f: value %v has rank %v, want within %v of %v",
				phi, got, r, eps*n, target)
		}
	}
}

func TestEmptySketch(t *testing.T) {
	s := New(0.01)
	if _, err := s.Query(0.5); err == nil {
		t.Error("Query on empty sketch should error")
	}
	if _, err := s.Splits(4); err == nil {
		t.Error("Splits on empty sketch should error")
	}
}

func TestSingleValue(t *testing.T) {
	s := New(0.1)
	s.Insert(3.5)
	for _, phi := range []float64{0, 0.5, 1} {
		if got := mustQuery(t, s, phi); got != 3.5 {
			t.Errorf("Query(%v) = %v, want 3.5", phi, got)
		}
	}
}

func TestExactExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(0.05)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 10000; i++ {
		v := rng.NormFloat64()
		s.Insert(v)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if got := mustQuery(t, s, 0); got != lo {
		t.Errorf("Query(0) = %v, want exact min %v", got, lo)
	}
	if got := mustQuery(t, s, 1); got != hi {
		t.Errorf("Query(1) = %v, want exact max %v", got, hi)
	}
}

func TestUniformStream(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := New(0.01)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Float64()
		s.Insert(xs[i])
	}
	sort.Float64s(xs)
	checkEps(t, s, xs, 0.01)
}

func TestSkewedStream(t *testing.T) {
	// Gradient-like distribution: most mass near zero (exponential decay),
	// both signs. This is exactly the regime Figure 4 shows.
	rng := rand.New(rand.NewSource(3))
	s := New(0.01)
	xs := make([]float64, 40000)
	for i := range xs {
		v := rng.ExpFloat64() * 0.01
		if rng.Intn(2) == 0 {
			v = -v
		}
		xs[i] = v
		s.Insert(v)
	}
	sort.Float64s(xs)
	checkEps(t, s, xs, 0.01)
}

func TestSortedAndReversedStreams(t *testing.T) {
	for name, gen := range map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(20000 - i) },
		"constant":   func(i int) float64 { return 7 },
	} {
		t.Run(name, func(t *testing.T) {
			s := New(0.02)
			xs := make([]float64, 20000)
			for i := range xs {
				xs[i] = gen(i)
				s.Insert(xs[i])
			}
			sort.Float64s(xs)
			checkEps(t, s, xs, 0.02)
		})
	}
}

func TestSummarySizeStaysSmall(t *testing.T) {
	s := New(0.01)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200000; i++ {
		s.Insert(rng.NormFloat64())
	}
	s.flush()
	size := len(s.tuples)
	// GK space is O((1/eps) * log(eps*n)); for eps=0.01, n=2e5 a loose
	// practical ceiling is a few thousand entries.
	if size > 4000 {
		t.Errorf("summary size %d too large for eps=0.01, n=2e5", size)
	}
	if size < 10 {
		t.Errorf("summary size %d suspiciously small", size)
	}
}

func TestSplitsEqualPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New(0.005)
	xs := make([]float64, 60000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
		s.Insert(xs[i])
	}
	sort.Float64s(xs)

	const q = 16
	splits, err := s.Splits(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != q+1 {
		t.Fatalf("got %d splits, want %d", len(splits), q+1)
	}
	for i := 1; i <= q; i++ {
		if splits[i] < splits[i-1] {
			t.Fatalf("splits not monotone at %d: %v < %v", i, splits[i], splits[i-1])
		}
	}
	// Each bucket should hold about n/q items, within sketch tolerance.
	n := len(xs)
	want := float64(n) / q
	for i := 0; i < q; i++ {
		lo := trueRank(xs, splits[i])
		hi := trueRank(xs, splits[i+1])
		if i == 0 {
			lo = 0
		}
		got := float64(hi - lo)
		if math.Abs(got-want) > 3*0.005*float64(n)+1 {
			t.Errorf("bucket %d population %v, want ~%v", i, got, want)
		}
	}
}

func TestQueryRejectsBadPhi(t *testing.T) {
	s := New(0.1)
	s.Insert(1)
	if _, err := s.Query(-0.1); err == nil {
		t.Error("Query(-0.1) should error")
	}
	if _, err := s.Query(1.1); err == nil {
		t.Error("Query(1.1) should error")
	}
}

func TestInsertNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on NaN insert")
		}
	}()
	New(0.1).Insert(math.NaN())
}

func TestConstructorValidation(t *testing.T) {
	for _, eps := range []float64{0, -1, 0.6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", eps)
				}
			}()
			New(eps)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewWithSize(1) should panic")
			}
		}()
		NewWithSize(1)
	}()
}

func TestNewWithSize(t *testing.T) {
	s := NewWithSize(128)
	if got := s.eps; math.Abs(got-1.0/128) > 1e-12 {
		t.Errorf("eps = %v, want 1/128", got)
	}
}

// Property: for random streams, the median query is always within the error
// bound of the true median.
func TestQuickMedianWithinBound(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	err := quick.Check(func(seed int64, size uint16) bool {
		n := int(size)%5000 + 100
		rng := rand.New(rand.NewSource(seed))
		s := New(0.02)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
			s.Insert(xs[i])
		}
		sort.Float64s(xs)
		got := mustQuery(t, s, 0.5)
		r := trueRank(xs, got)
		lo := sort.SearchFloat64s(xs, got) + 1
		target := int(math.Ceil(0.5 * float64(n)))
		tol := int(0.02*float64(n)) + 1
		return (target >= lo-tol && target <= r+tol)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := New(0.01)
	rng := rand.New(rand.NewSource(9))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(vals[i&(1<<16-1)])
	}
}

func BenchmarkSplits256(b *testing.B) {
	s := New(0.005)
	rng := rand.New(rand.NewSource(10))
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
