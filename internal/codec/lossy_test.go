package codec

import (
	"math"
	"math/rand"
	"testing"

	"sketchml/internal/gradient"
)

func TestOneBitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGradient(rng, 100000, 3000)
	c := &OneBit{}
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != g.NNZ() {
		t.Fatalf("nnz %d, want %d", got.NNZ(), g.NNZ())
	}
	var meanMag float64
	for _, v := range g.Values {
		meanMag += math.Abs(v)
	}
	meanMag /= float64(g.NNZ())
	for i := range g.Keys {
		if got.Keys[i] != g.Keys[i] {
			t.Fatalf("key %d corrupted", i)
		}
		// Every decoded value is ±scale with the original's sign.
		if math.Abs(math.Abs(got.Values[i])-meanMag) > 1e-12 {
			t.Fatalf("magnitude %v, want scale %v", got.Values[i], meanMag)
		}
		if got.Values[i]*g.Values[i] < 0 {
			t.Fatalf("sign flipped at %d", i)
		}
	}
}

func TestOneBitSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGradient(rng, 100000, 5000)
	sizes := map[string]int{}
	for _, c := range []Codec{&Raw{}, &ZipML{Bits: 8}, &OneBit{}, MustSketchML(DefaultOptions())} {
		data, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		sizes[c.Name()] = len(data)
	}
	// One bit per value is the most aggressive value compression of all.
	if sizes["OneBit"] >= sizes["ZipML-8bit"] {
		t.Errorf("OneBit %d >= ZipML-8bit %d", sizes["OneBit"], sizes["ZipML-8bit"])
	}
}

func TestOneBitEmpty(t *testing.T) {
	g := gradient.NewSparse(100, 0)
	c := &OneBit{}
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil || got.NNZ() != 0 {
		t.Fatalf("empty round trip: %v, %v", got, err)
	}
}

func TestTopKKeepsLargest(t *testing.T) {
	g := gradient.NewSparse(100, 5)
	g.Append(1, 0.1)
	g.Append(5, -2.0)
	g.Append(9, 0.5)
	g.Append(20, -0.01)
	g.Append(50, 1.5)
	c := &TopK{Fraction: 0.4} // ceil(0.4*5) = 2 entries
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 2 {
		t.Fatalf("nnz %d, want 2", got.NNZ())
	}
	if got.Keys[0] != 5 || got.Keys[1] != 50 {
		t.Fatalf("kept keys %v, want [5 50]", got.Keys)
	}
	if got.Values[0] != -2.0 || math.Abs(got.Values[1]-1.5) > 1e-6 {
		t.Fatalf("kept values %v", got.Values)
	}
}

func TestTopKFractionOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGradient(rng, 50000, 1000)
	c := &TopK{Fraction: 1}
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != g.NNZ() {
		t.Fatalf("full fraction should keep everything: %d vs %d", got.NNZ(), g.NNZ())
	}
}

func TestTopKBadFraction(t *testing.T) {
	g := randomGradient(rand.New(rand.NewSource(5)), 100, 10)
	if _, err := (&TopK{Fraction: 1.5}).Encode(g); err == nil {
		t.Error("fraction > 1 accepted")
	}
	if _, err := (&TopK{Fraction: -0.1}).Encode(g); err == nil {
		t.Error("negative fraction accepted")
	}
}

func TestLossyDecodeRejectsWrongTagAndTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGradient(rng, 10000, 300)
	for _, c := range []Codec{&OneBit{}, &TopK{Fraction: 0.5}} {
		data, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := (&Raw{}).Encode(g)
		if _, err := c.Decode(raw); err == nil {
			t.Errorf("%s decoded a Raw message", c.Name())
		}
		for _, cut := range []int{0, 3, len(data) / 2, len(data) - 1} {
			if _, err := c.Decode(data[:cut]); err == nil {
				t.Errorf("%s: truncation at %d silently decoded", c.Name(), cut)
			}
		}
	}
}

func TestErrorFeedbackRecoversDroppedMass(t *testing.T) {
	// With Top-K at 30%, repeated encoding of the same gradient must
	// eventually transmit everything: the decoded sum over rounds converges
	// to round-count times the gradient. Rotation time for a coordinate is
	// ~|vmax/v| rounds, so use values with bounded magnitude spread.
	rng := rand.New(rand.NewSource(7))
	m := map[uint64]float64{}
	for len(m) < 500 {
		v := 0.5 + rng.Float64() // magnitudes within 3x of each other
		if rng.Intn(2) == 0 {
			v = -v
		}
		m[uint64(rng.Int63n(20000))] = v
	}
	g := gradient.FromMap(20000, m)
	ef := NewErrorFeedback(&TopK{Fraction: 0.3})
	if ef.Name() != "TopK-0.3+EF" {
		t.Errorf("Name = %q", ef.Name())
	}
	sum := make([]float64, g.Dim)
	const rounds = 40
	for round := 0; round < rounds; round++ {
		msg, err := ef.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := ef.Decode(msg)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range dec.Keys {
			sum[k] += dec.Values[i]
		}
	}
	// Compare per-coordinate transmitted mass to rounds * value.
	var worst float64
	for i, k := range g.Keys {
		want := float64(rounds) * g.Values[i]
		rel := math.Abs(sum[k]-want) / math.Max(math.Abs(want), 1e-12)
		if rel > worst {
			worst = rel
		}
	}
	// A coordinate can wait ~(vmax/v) rounds for its turn, so with a 3x
	// magnitude spread the residual holds at most a few rounds of mass.
	if worst > 5.0/rounds {
		t.Errorf("worst per-coordinate relative shortfall %.3f, want <= %.3f", worst, 5.0/rounds)
	}
	if ef.ResidualNorm() <= 0 {
		t.Error("residual should be nonzero mid-stream")
	}
}

func TestErrorFeedbackLosslessInnerIsTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGradient(rng, 10000, 300)
	ef := NewErrorFeedback(&Raw{})
	msg, err := ef.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ef.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Keys {
		if dec.Keys[i] != g.Keys[i] || dec.Values[i] != g.Values[i] {
			t.Fatal("lossless inner should round-trip exactly")
		}
	}
	if n := ef.ResidualNorm(); n != 0 {
		t.Errorf("residual %v for lossless inner, want 0", n)
	}
}

func TestErrorFeedbackWithSketchML(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGradient(rng, 100000, 2000)
	ef := NewErrorFeedback(MustSketchML(DefaultOptions()))
	// Transmitted mass over many rounds approaches the true mass even
	// though each individual message decays values.
	sum := make([]float64, g.Dim)
	const rounds = 30
	for round := 0; round < rounds; round++ {
		msg, err := ef.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := ef.Decode(msg)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range dec.Keys {
			sum[k] += dec.Values[i]
		}
	}
	var num, den float64
	for i, k := range g.Keys {
		want := float64(rounds) * g.Values[i]
		num += math.Abs(sum[k] - want)
		den += math.Abs(want)
	}
	if rel := num / den; rel > 0.15 {
		t.Errorf("aggregate relative shortfall %.3f, want <= 0.15 with feedback", rel)
	}
}
