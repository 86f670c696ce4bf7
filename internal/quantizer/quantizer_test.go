package quantizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// skewedGradients mimics Figure 4: most values near zero, both signs.
func skewedGradients(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		v := rng.ExpFloat64() * 0.02
		if rng.Intn(2) == 0 {
			v = -v
		}
		out[i] = v
	}
	return out
}

func TestBuildQuantileBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := skewedGradients(rng, 20000)
	z, err := BuildQuantile(vals, 16, 256)
	if err != nil {
		t.Fatal(err)
	}
	if z.NumBuckets() != 16 {
		t.Fatalf("NumBuckets = %d", z.NumBuckets())
	}
	if len(z.Splits()) != 17 || len(z.Means()) != 16 {
		t.Fatal("splits/means sized wrong")
	}
	// Each encoded value must lie within the overall range and buckets must
	// contain their values.
	for _, v := range vals[:2000] {
		b := z.Bucket(v)
		if b < 0 || b >= 16 {
			t.Fatalf("Bucket(%v) = %d out of range", v, b)
		}
		lo, hi := z.Splits()[b], z.Splits()[b+1]
		if v < lo-1e-12 || v > hi+1e-12 {
			// Clamping at extremes is allowed.
			if b != 0 && b != 15 {
				t.Fatalf("value %v assigned to bucket [%v,%v]", v, lo, hi)
			}
		}
	}
}

func TestQuantileEqualPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := skewedGradients(rng, 40000)
	const q = 8
	z, err := BuildQuantile(vals, q, 512)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, q)
	for _, v := range vals {
		counts[z.Bucket(v)]++
	}
	want := float64(len(vals)) / q
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Errorf("bucket %d holds %d, want ~%.0f", i, c, want)
		}
	}
}

func TestQuantileBeatsUniformOnSkewedData(t *testing.T) {
	// The paper's core motivation: on nonuniform gradients, equal-width
	// levels waste precision on the stretched tail and mangle the near-zero
	// mass that carries the optimization signal. The right lens is RELATIVE
	// error (a small gradient quantized to zero is a 100% error no matter
	// how small its absolute error is — it's the ZipML "quantified to zero"
	// failure the paper describes), where equal-population quantile buckets
	// win decisively.
	rng := rand.New(rand.NewSource(3))
	vals := skewedGradients(rng, 30000)
	// Add a few large outliers to stretch the range, as real gradients have.
	for i := 0; i < 30; i++ {
		vals[i] *= 50
	}
	const q = 256
	zq, err := BuildQuantile(vals, q, 256)
	if err != nil {
		t.Fatal(err)
	}
	zu, err := BuildUniform(vals, q)
	if err != nil {
		t.Fatal(err)
	}
	relErr := func(enc func(float64) float64) float64 {
		var s float64
		n := 0
		for _, v := range vals {
			if v == 0 {
				continue
			}
			s += math.Abs(v-enc(v)) / math.Abs(v)
			n++
		}
		return s / float64(n)
	}
	rq, ru := relErr(zq.Encode), relErr(zu.Encode)
	if rq >= ru {
		t.Errorf("quantile relative error %.4f should beat uniform %.4f on skewed data", rq, ru)
	}
	// The quantile advantage should be large, not marginal: the paper sees
	// uniform quantification stall convergence entirely near the optimum.
	if rq*5 > ru {
		t.Errorf("quantile relative error %.4f not clearly better than uniform %.4f", rq, ru)
	}
}

func TestQuantileVarianceBoundTheoremA2(t *testing.T) {
	// Theorem A.2: sum of squared quantization errors <= d/(4q) * (phi_min^2
	// + phi_max^2) where phi_min/phi_max are the extreme values.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		vals := skewedGradients(rng, 10000)
		const q = 64
		z, err := BuildQuantile(vals, q, 1024)
		if err != nil {
			t.Fatal(err)
		}
		var sum, lo, hi float64
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			d := v - z.Encode(v)
			sum += d * d
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		bound := float64(len(vals)) / (4 * q) * (lo*lo + hi*hi)
		// Allow slack for the sketch's split approximation.
		if sum > bound*1.5 {
			t.Errorf("trial %d: variance %.4e exceeds bound %.4e", trial, sum, bound)
		}
	}
}

func TestBucketEdgeCases(t *testing.T) {
	z, err := NewQuantileFromSplits([]float64{-1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {-0.5, 0}, {0, 1}, {0.5, 1}, {1, 1},
		{-99, 0}, {99, 1}, // clamped
	}
	for _, c := range cases {
		if got := z.Bucket(c.v); got != c.want {
			t.Errorf("Bucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if z.Mean(0) != -0.5 || z.Mean(1) != 0.5 {
		t.Errorf("means wrong: %v", z.Means())
	}
	if z.Mean(-5) != -0.5 || z.Mean(99) != 0.5 {
		t.Error("Mean should clamp out-of-range indexes")
	}
}

func TestQuantileConstantValues(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = 0.5
	}
	z, err := BuildQuantile(vals, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.Encode(0.5); got != 0.5 {
		t.Errorf("Encode(0.5) = %v on constant data", got)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := BuildQuantile(nil, 8, 64); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := BuildQuantile([]float64{1}, 0, 64); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := NewQuantileFromSplits([]float64{1}); err == nil {
		t.Error("1 split accepted")
	}
	if _, err := NewQuantileFromSplits([]float64{2, 1}); err == nil {
		t.Error("descending splits accepted")
	}
}

func TestSignedSeparationNeverFlipsSign(t *testing.T) {
	// Section 3.3 Problem 1: joint quantization can reverse a gradient's
	// sign; signed separation must never do so.
	rng := rand.New(rand.NewSource(5))
	vals := skewedGradients(rng, 20000)
	s, err := BuildSigned(vals, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		enc := s.Mean(s.Bucket(v))
		if v > 0 && enc < 0 || v < 0 && enc > 0 {
			t.Fatalf("sign flipped: %v -> %v", v, enc)
		}
	}
}

func TestJointQuantizerCanFlipSign(t *testing.T) {
	// The paper's Figure 6 Case 1: a bucket straddling zero reverses signs.
	// Demonstrate the defect exists for the unsigned quantizer so the fix is
	// meaningful.
	z, err := NewQuantileFromSplits([]float64{-0.05, 0.03, 0.11}) // Figure 6's third bucket
	if err != nil {
		t.Fatal(err)
	}
	if enc := z.Encode(0.01); enc >= 0 {
		t.Skipf("joint quantizer did not flip (enc=%v); example depends on splits", enc)
	}
}

func TestSignedDecayTowardZero(t *testing.T) {
	// Magnitude-ordered buckets: decreasing a bucket index must decrease the
	// decoded magnitude, for both signs. This is what makes MinMaxSketch's
	// min-decay safe.
	rng := rand.New(rand.NewSource(6))
	vals := skewedGradients(rng, 10000)
	s, err := BuildSigned(vals, 32, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Quantile{s.pos, s.neg} {
		if q == nil {
			t.Fatal("expected both signs present")
		}
		for i := 1; i < q.NumBuckets(); i++ {
			if q.Mean(i) < q.Mean(i-1) {
				t.Fatalf("bucket means not magnitude-ascending at %d: %v < %v",
					i, q.Mean(i), q.Mean(i-1))
			}
		}
	}
	// Decay check end-to-end: for any value, any smaller index decodes to a
	// smaller-or-equal magnitude with the same sign.
	for _, v := range vals[:500] {
		neg, idx := s.Bucket(v)
		for down := idx; down >= 0; down-- {
			dec := s.Mean(neg, down)
			if math.Abs(dec) > math.Abs(s.Mean(neg, idx))+1e-15 {
				t.Fatalf("decayed index increased magnitude: v=%v idx=%d down=%d", v, idx, down)
			}
			if v > 0 && dec < 0 || v < 0 && dec > 0 {
				t.Fatalf("decayed index flipped sign: v=%v dec=%v", v, dec)
			}
		}
	}
}

func TestSignedOneSidedData(t *testing.T) {
	pos := []float64{0.1, 0.2, 0.3}
	s, err := BuildSigned(pos, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.neg != nil {
		t.Error("neg quantizer should be nil for all-positive data")
	}
	if enc := s.Mean(s.Bucket(0.2)); enc <= 0 {
		t.Errorf("Mean(Bucket(0.2)) = %v", enc)
	}
	// Encoding a negative value with no negative quantizer degrades to 0.
	if enc := s.Mean(s.Bucket(-1)); enc != 0 {
		t.Errorf("Mean(Bucket(-1)) with no neg side = %v, want 0", enc)
	}
}

func TestUniformBasics(t *testing.T) {
	u, err := NewUniform(-1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {-0.5, 1}, {0, 2}, {0.5, 3}, {1, 4}, {-9, 0}, {9, 4},
	}
	for _, c := range cases {
		if got := u.Bucket(c.v); got != c.want {
			t.Errorf("Bucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if u.Mean(2) != 0 || u.Mean(0) != -1 || u.Mean(4) != 1 {
		t.Error("uniform means wrong")
	}
}

func TestUniformCollapsesSmallValues(t *testing.T) {
	// The ZipML failure mode: with a stretched range, small values quantize
	// to the level nearest zero... and with coarse levels, exactly to zero.
	u, err := NewUniform(-1, 1, 3) // levels at -1, 0, 1
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.01, -0.02, 0.3, -0.3} {
		if got := u.Encode(v); got != 0 {
			t.Errorf("Encode(%v) = %v, want 0 (collapse)", v, got)
		}
	}
}

func TestUniformDegenerateRange(t *testing.T) {
	u, err := NewUniform(2, 2, 256)
	if err != nil {
		t.Fatal(err)
	}
	if u.Bucket(2) != 0 || u.Mean(0) != 2 {
		t.Error("degenerate range mishandled")
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := NewUniform(1, -1, 4); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := NewUniform(0, 1, 1); err == nil {
		t.Error("1 level accepted")
	}
	if _, err := BuildUniform(nil, 4); err == nil {
		t.Error("empty values accepted")
	}
}

func TestOneBit(t *testing.T) {
	o, err := BuildOneBit([]float64{1, -1, 3, -3})
	if err != nil {
		t.Fatal(err)
	}
	if o.Scale() != 2 {
		t.Fatalf("Scale = %v, want 2", o.Scale())
	}
	if _, err := BuildOneBit(nil); err == nil {
		t.Error("empty values accepted")
	}
}

// Property: quantile encoding error per value is bounded by the width of
// the containing bucket.
func TestQuickEncodeErrorWithinBucket(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := skewedGradients(rng, 2000)
		z, err := BuildQuantile(vals, 32, 256)
		if err != nil {
			return false
		}
		for _, v := range vals {
			b := z.Bucket(v)
			width := z.Splits()[b+1] - z.Splits()[b]
			lo, hi := z.Splits()[0], z.Splits()[len(z.Splits())-1]
			if v >= lo && v <= hi {
				if math.Abs(v-z.Encode(v)) > width/2+1e-12 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkBuildQuantile256(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	vals := skewedGradients(rng, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildQuantile(vals, 256, 128); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBucketLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	vals := skewedGradients(rng, 100000)
	z, _ := BuildQuantile(vals, 256, 128)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = z.Bucket(vals[i%len(vals)])
	}
	_ = sink
}
