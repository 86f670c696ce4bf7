package hashing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Deterministic(t *testing.T) {
	if Mix64(42, 7) != Mix64(42, 7) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(42, 7) == Mix64(42, 8) {
		t.Error("different seeds should give different hashes (overwhelmingly)")
	}
	if Mix64(42, 7) == Mix64(43, 7) {
		t.Error("different keys should give different hashes (overwhelmingly)")
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~half the output bits on average.
	const trials = 2000
	totalFlips := 0
	for i := 0; i < trials; i++ {
		x := uint64(i)*0x9e3779b97f4a7c15 + 1
		bit := uint(i % 64)
		h1 := Mix64(x, 99)
		h2 := Mix64(x^(1<<bit), 99)
		totalFlips += popcount(h1 ^ h2)
	}
	avg := float64(totalFlips) / trials
	if avg < 28 || avg > 36 {
		t.Errorf("avalanche average = %.2f bits, want ~32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestFamilyRange(t *testing.T) {
	f := NewFamily(4, 37, 123)
	for row := 0; row < 4; row++ {
		for k := uint64(0); k < 10000; k++ {
			idx := f.Index(row, k)
			if idx < 0 || idx >= 37 {
				t.Fatalf("Index(%d,%d) = %d out of range", row, k, idx)
			}
		}
	}
}

func TestFamilyDeterministicAcrossInstances(t *testing.T) {
	a := NewFamily(3, 101, 77)
	b := NewFamily(3, 101, 77)
	for row := 0; row < 3; row++ {
		for k := uint64(0); k < 1000; k++ {
			if a.Index(row, k) != b.Index(row, k) {
				t.Fatalf("families with same master seed disagree at row=%d key=%d", row, k)
			}
		}
	}
}

func TestFamilyRowsIndependent(t *testing.T) {
	// Different rows should not be the same function.
	f := NewFamily(3, 1024, 9)
	same01, same02 := 0, 0
	const n = 5000
	for k := uint64(0); k < n; k++ {
		if f.Index(0, k) == f.Index(1, k) {
			same01++
		}
		if f.Index(0, k) == f.Index(2, k) {
			same02++
		}
	}
	// Expected collision rate between independent functions is 1/1024.
	if same01 > n/100 || same02 > n/100 {
		t.Errorf("rows look correlated: same01=%d same02=%d of %d", same01, same02, n)
	}
}

func TestFamilyUniformity(t *testing.T) {
	// Chi-squared check that bucket occupancy is close to uniform.
	const buckets = 64
	const n = 64 * 1000
	f := NewFamily(1, buckets, 2024)
	counts := make([]int, buckets)
	for k := uint64(0); k < n; k++ {
		counts[f.Index(0, k)]++
	}
	expected := float64(n) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// df = 63; mean 63, sd ~ sqrt(126) ~ 11.2. Allow a generous 5-sigma band.
	if chi2 > 63+5*math.Sqrt(126) {
		t.Errorf("chi2 = %.1f, distribution looks non-uniform", chi2)
	}
}

func TestNewFamilyPanics(t *testing.T) {
	assertPanics(t, func() { NewFamily(0, 10, 1) })
	assertPanics(t, func() { NewFamily(2, 0, 1) })
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func TestMulHigh(t *testing.T) {
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0},
		{1, 1, 0},
		{1 << 63, 2, 1},
		{1 << 32, 1 << 32, 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1},
		{math.MaxUint64, 2, 1},
	}
	for _, c := range cases {
		if got := Reduce(c.a, c.b); got != c.want {
			t.Errorf("Reduce(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMulHighMatchesBigArithmetic(t *testing.T) {
	// Property: Reduce agrees with the definition via 128-bit decomposition.
	err := quick.Check(func(a, b uint64) bool {
		// Compute via four 32x32 products, the textbook way but assembled
		// differently from the implementation.
		const m = 1<<32 - 1
		al, ah := a&m, a>>32
		bl, bh := b&m, b>>32
		lo := al * bl
		mid1 := ah * bl
		mid2 := al * bh
		carry := ((lo >> 32) + (mid1 & m) + (mid2 & m)) >> 32
		want := ah*bh + (mid1 >> 32) + (mid2 >> 32) + carry
		return Reduce(a, b) == want
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkMix64(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = Mix64(uint64(i), 42)
	}
	_ = sink
}

func BenchmarkFamilyIndex(b *testing.B) {
	f := NewFamily(4, 1<<20, 42)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = f.Index(i&3, uint64(i))
	}
	_ = sink
}
