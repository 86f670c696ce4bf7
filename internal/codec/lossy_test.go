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
