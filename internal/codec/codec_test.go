package codec

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sketchml/internal/gradient"
)

// randomGradient builds a sparse gradient with skewed, signed values over a
// dim-dimensional space — the Figure 4 regime.
func randomGradient(rng *rand.Rand, dim uint64, nnz int) *gradient.Sparse {
	m := map[uint64]float64{}
	for len(m) < nnz {
		v := rng.ExpFloat64() * 0.02
		if rng.Intn(2) == 0 {
			v = -v
		}
		if v == 0 {
			continue
		}
		m[uint64(rng.Int63n(int64(dim)))] = v
	}
	return gradient.FromMap(dim, m)
}

func TestRawRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGradient(rng, 1_000_000, 5000)
	c := &Raw{}
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != g.Dim || got.NNZ() != g.NNZ() {
		t.Fatalf("shape mismatch: dim %d nnz %d", got.Dim, got.NNZ())
	}
	for i := range g.Keys {
		if got.Keys[i] != g.Keys[i] || got.Values[i] != g.Values[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestRawFloat32LossBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGradient(rng, 10000, 500)
	c := &Raw{Float32: true}
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Values {
		rel := math.Abs(got.Values[i]-g.Values[i]) / math.Abs(g.Values[i])
		if rel > 1e-6 {
			t.Fatalf("float32 relative error %v too large", rel)
		}
	}
	// And it should be ~2/3 the size of double precision.
	d64, _ := (&Raw{}).Encode(g)
	if len(data) >= len(d64) {
		t.Errorf("float32 message (%d) not smaller than float64 (%d)", len(data), len(d64))
	}
}

func TestRawWideKeys(t *testing.T) {
	g := gradient.NewSparse(1<<40, 2)
	g.Append(5, 0.5)
	g.Append(1<<39, -0.25)
	c := &Raw{}
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Keys[1] != 1<<39 {
		t.Fatalf("wide key lost: %d", got.Keys[1])
	}
}

func TestZipMLRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGradient(rng, 100000, 3000)
	for _, bits := range []int{8, 16} {
		c := &ZipML{Bits: bits}
		data, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != g.NNZ() {
			t.Fatalf("bits=%d: nnz %d, want %d", bits, got.NNZ(), g.NNZ())
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range g.Values {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		spacing := (hi - lo) / float64(int(1)<<bits-1)
		for i := range g.Keys {
			if got.Keys[i] != g.Keys[i] {
				t.Fatalf("bits=%d: key %d corrupted", bits, i)
			}
			if math.Abs(got.Values[i]-g.Values[i]) > spacing/2+1e-12 {
				t.Fatalf("bits=%d: value error %v exceeds half spacing %v",
					bits, math.Abs(got.Values[i]-g.Values[i]), spacing/2)
			}
		}
	}
}

func TestZipMLSmallerThanRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGradient(rng, 100000, 5000)
	raw, _ := (&Raw{}).Encode(g)
	zip, _ := (&ZipML{Bits: 16}).Encode(g)
	if len(zip) >= len(raw) {
		t.Errorf("ZipML %d >= raw %d", len(zip), len(raw))
	}
}

func TestZipMLRejectsBadBits(t *testing.T) {
	g := randomGradient(rand.New(rand.NewSource(5)), 100, 10)
	if _, err := (&ZipML{Bits: 12}).Encode(g); err == nil {
		t.Error("bits=12 accepted")
	}
}

func TestSketchMLFullRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGradient(rng, 1_000_000, 8000)
	c := MustSketchML(DefaultOptions())
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != g.Dim {
		t.Fatalf("dim %d, want %d", got.Dim, g.Dim)
	}
	if got.NNZ() != g.NNZ() {
		t.Fatalf("nnz %d, want %d", got.NNZ(), g.NNZ())
	}
	maxAbs := g.MaxAbs()
	for i := range g.Keys {
		// Keys are lossless.
		if got.Keys[i] != g.Keys[i] {
			t.Fatalf("key %d: %d != %d", i, got.Keys[i], g.Keys[i])
		}
		v, d := g.Values[i], got.Values[i]
		// No sign reversal (Section 3.3 Problem 1 solved).
		if v > 0 && d < 0 || v < 0 && d > 0 {
			t.Fatalf("sign reversed at key %d: %v -> %v", g.Keys[i], v, d)
		}
		// Bounded magnitude: decoding never amplifies beyond the largest
		// bucket mean, which is itself bounded by the max gradient value.
		if math.Abs(d) > maxAbs*1.0+1e-12 {
			t.Fatalf("amplified at key %d: |%v| > max |%v|", g.Keys[i], d, maxAbs)
		}
	}
}

func TestSketchMLDecayOnly(t *testing.T) {
	// MinMaxSketch introduces only underestimation: the decoded value's
	// magnitude never exceeds what exact quantification would give.
	rng := rand.New(rand.NewSource(7))
	g := randomGradient(rng, 500000, 6000)

	exactOpts := DefaultOptions()
	exactOpts.MinMax = false
	exact := MustSketchML(exactOpts)
	full := MustSketchML(DefaultOptions())

	de, err := exact.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := exact.Decode(de)
	if err != nil {
		t.Fatal(err)
	}
	df, err := full.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := full.Decode(df)
	if err != nil {
		t.Fatal(err)
	}
	amplified := 0
	for i := range g.Keys {
		if math.Abs(gf.Values[i]) > math.Abs(ge.Values[i])+1e-12 {
			amplified++
		}
	}
	if amplified > 0 {
		t.Errorf("%d of %d values amplified relative to exact quantification", amplified, g.NNZ())
	}
}

func TestSketchMLGroupErrorBound(t *testing.T) {
	// With r groups the decoded bucket index is within q/r of the true
	// index, so the decoded value is at least the mean of the bucket q/r
	// below the true one. Verify via the magnitude ordering.
	rng := rand.New(rand.NewSource(8))
	g := randomGradient(rng, 200000, 4000)
	opts := DefaultOptions()
	opts.Groups = 8
	c := MustSketchML(opts)
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Indirect check: mean decay across all entries should be modest.
	var ratioSum float64
	n := 0
	for i := range g.Values {
		if g.Values[i] != 0 {
			ratioSum += math.Abs(got.Values[i]) / math.Abs(g.Values[i])
			n++
		}
	}
	avg := ratioSum / float64(n)
	if avg < 0.3 || avg > 1.6 {
		t.Errorf("average decoded/original magnitude ratio %.3f outside sane band", avg)
	}
}

func TestSketchMLAblationStages(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Density matters here: the paper's Appendix A.3 gives bytes/key =
	// ⌈log2(rD/d)/8⌉ for its per-group delta keys, so its MinMaxSketch stage
	// only wins when rD/d <= 256 keeps them at one byte. D/d = 20 (mini-batch gradients over a shared
	// feature space) is the paper's operating regime.
	g := randomGradient(rng, 200_000, 10000)

	keyOnly := DefaultOptions()
	keyOnly.Quantize, keyOnly.MinMax = false, false
	keyQuan := DefaultOptions()
	keyQuan.MinMax = false

	stages := []*SketchML{
		MustSketchML(keyOnly),
		MustSketchML(keyQuan),
		MustSketchML(DefaultOptions()),
	}
	names := []string{"Adam+Key", "Adam+Key+Quan", "SketchML"}
	raw, _ := (&Raw{}).Encode(g)
	prev := len(raw)
	for i, c := range stages {
		if c.Name() != names[i] {
			t.Errorf("stage %d name = %q, want %q", i, c.Name(), names[i])
		}
		data, err := c.Encode(g)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatalf("%s decode: %v", names[i], err)
		}
		if got.NNZ() != g.NNZ() {
			t.Fatalf("%s: nnz %d, want %d", names[i], got.NNZ(), g.NNZ())
		}
		for j := range g.Keys {
			if got.Keys[j] != g.Keys[j] {
				t.Fatalf("%s: key %d corrupted", names[i], j)
			}
		}
		// Each successive component must shrink the message (Figure 8(b)).
		if len(data) >= prev {
			t.Errorf("%s message %d bytes, not smaller than previous stage %d",
				names[i], len(data), prev)
		}
		prev = len(data)
	}
}

func TestSketchMLKeyOnlyLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := randomGradient(rng, 100000, 2000)
	opts := DefaultOptions()
	opts.Quantize, opts.MinMax = false, false
	c := MustSketchML(opts)
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Values {
		if got.Values[i] != g.Values[i] {
			t.Fatalf("Adam+Key should be value-lossless; entry %d differs", i)
		}
	}
}

func TestSketchMLQuanMatchesQuantizer(t *testing.T) {
	// Without MinMax the decode must be exactly the signed quantile
	// encoding: deterministic bucket means.
	rng := rand.New(rand.NewSource(11))
	g := randomGradient(rng, 100000, 3000)
	opts := DefaultOptions()
	opts.MinMax = false
	c := MustSketchML(opts)
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range g.Values {
		d := got.Values[i]
		if v > 0 && d < 0 || v < 0 && d > 0 {
			t.Fatalf("sign flip at %d", i)
		}
		// The bucket mean is within the pane's value range.
		if math.Abs(d) > g.MaxAbs()+1e-12 {
			t.Fatalf("out-of-range decode at %d: %v", i, d)
		}
	}
}

func TestSketchMLCompressionRate(t *testing.T) {
	// Figure 8(b): the paper reports ~7.2x vs the raw message. Our synthetic
	// gradient should comfortably exceed 4x.
	rng := rand.New(rand.NewSource(12))
	g := randomGradient(rng, 2_000_000, 20000)
	raw, err := (&Raw{}).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := MustSketchML(DefaultOptions()).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(raw)) / float64(len(sk))
	if ratio < 4 {
		t.Errorf("compression rate %.2fx, want >= 4x (raw %d, sketchml %d)", ratio, len(raw), len(sk))
	}
}

func TestSketchMLEmptyGradient(t *testing.T) {
	g := gradient.NewSparse(1000, 0)
	for _, c := range []Codec{&Raw{}, &ZipML{}, MustSketchML(DefaultOptions())} {
		data, err := c.Encode(g)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatalf("%s decode: %v", c.Name(), err)
		}
		if got.NNZ() != 0 || got.Dim != 1000 {
			t.Fatalf("%s: got nnz=%d dim=%d", c.Name(), got.NNZ(), got.Dim)
		}
	}
}

func TestSketchMLSingleSignPanes(t *testing.T) {
	for _, sign := range []float64{1, -1} {
		g := gradient.NewSparse(1000, 10)
		for i := 0; i < 10; i++ {
			g.Append(uint64(i*37), sign*float64(i+1)*0.01)
		}
		c := MustSketchML(DefaultOptions())
		data, err := c.Encode(g)
		if err != nil {
			t.Fatalf("sign %v: %v", sign, err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatalf("sign %v decode: %v", sign, err)
		}
		if got.NNZ() != 10 {
			t.Fatalf("sign %v: nnz %d", sign, got.NNZ())
		}
		for i := range got.Values {
			if got.Values[i]*sign < 0 {
				t.Fatalf("sign %v flipped at %d: %v", sign, i, got.Values[i])
			}
		}
	}
}

func TestSketchMLSingleEntry(t *testing.T) {
	g := gradient.NewSparse(10, 1)
	g.Append(3, -0.125)
	c := MustSketchML(DefaultOptions())
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 1 || got.Keys[0] != 3 {
		t.Fatalf("got %v", got.Keys)
	}
	if got.Values[0] > 0 {
		t.Fatalf("sign flipped: %v", got.Values[0])
	}
}

func TestSketchMLWideKeys(t *testing.T) {
	g := gradient.NewSparse(1<<40, 3)
	g.Append(100, 0.5)
	g.Append(1<<35, -0.3)
	g.Append(1<<39, 0.1)
	c := MustSketchML(DefaultOptions())
	data, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range []uint64{100, 1 << 35, 1 << 39} {
		if got.Keys[i] != k {
			t.Fatalf("key %d = %d, want %d", i, got.Keys[i], k)
		}
	}
}

// TestSketchMLDenseMessageShorterThanCount round-trips messages that carry
// more entries than bytes: a locally dense gradient of one sign, whose
// Elias–Fano keys cost about a highs bit each, at r = 2 (Dim 10⁷, keys
// 0…99 999) and at one group on a dense Dim. A decoder that bounds the
// header's count by one byte an entry refuses what its own encoder wrote.
func TestSketchMLDenseMessageShorterThanCount(t *testing.T) {
	oneGroup := DefaultOptions()
	oneGroup.Groups = 1
	for _, tc := range []struct {
		name   string
		dim    uint64
		opts   Options
		groups int
	}{
		{"r=2 at Dim 1e7", 10_000_000, DefaultOptions(), 2},
		{"r=1 at Dim = nnz", 100_000, oneGroup, 1},
	} {
		const n = 100_000
		g := gradient.NewSparse(tc.dim, n)
		rng := rand.New(rand.NewSource(5))
		for k := uint64(0); k < n; k++ {
			g.Append(k, rng.Float64()+1e-3)
		}
		msg, err := MustSketchML(tc.opts).Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(msg) >= n {
			t.Fatalf("%s: message of %d bytes for %d entries; the case needs fewer bytes than entries", tc.name, len(msg), n)
		}
		if got := countGroups(t, msg); got != tc.groups {
			t.Fatalf("%s: %d groups, want %d", tc.name, got, tc.groups)
		}
		var dst gradient.Sparse
		if err := decoderUnderTest.DecodeInto(msg, &dst); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireMatchesOracle(t, tc.name, msg, &dst)
		if !slices.Equal(dst.Keys, g.Keys) {
			t.Fatalf("%s: decoded keys differ from the encoded ones", tc.name)
		}
	}
}

func TestAnalyzeMatchesEncodeSize(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomGradient(rng, 500000, 5000)
	codecs := []Codec{
		&Raw{}, &Raw{Float32: true}, MustSketchML(DefaultOptions()),
	}
	for _, c := range codecs {
		a, ok := c.(Analyzer)
		if !ok {
			t.Fatalf("%s does not implement Analyzer", c.Name())
		}
		bd, err := a.Analyze(g)
		if err != nil {
			t.Fatalf("%s analyze: %v", c.Name(), err)
		}
		data, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		if bd.Total() != len(data) {
			t.Errorf("%s: breakdown total %d != message size %d", c.Name(), bd.Total(), len(data))
		}
	}
}

func TestDecodeRejectsWrongTag(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g := randomGradient(rng, 1000, 50)
	raw, _ := (&Raw{}).Encode(g)
	if _, err := (&ZipML{}).Decode(raw); err == nil {
		t.Error("ZipML decoded a Raw message")
	}
	sk := MustSketchML(DefaultOptions())
	if _, err := sk.Decode(raw); err == nil {
		t.Error("SketchML decoded a Raw message")
	}
	// A message names exactly one key code for all its lists: one that
	// names neither or both is refused, not read in some other key layout —
	// also when it holds no key list at all.
	for _, in := range []*gradient.Sparse{g, {Dim: g.Dim}} {
		msg, err := sk.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		for name, set := range map[string]bool{"neither": false, "both": true} {
			mut := append([]byte(nil), msg...)
			mut[1] &^= smFlagDeltaKeys | smFlagEFKeys
			if set {
				mut[1] |= smFlagDeltaKeys | smFlagEFKeys
			}
			if _, err := sk.Decode(mut); err == nil {
				t.Errorf("SketchML decoded a %d-entry message whose flags name %s key code", in.NNZ(), name)
			}
		}
	}
}

func TestDecodeTruncationsError(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := randomGradient(rng, 10000, 200)
	codecs := []Codec{&Raw{}, &ZipML{Bits: 16}, MustSketchML(DefaultOptions())}
	for _, c := range codecs {
		data, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{0, 1, 5, len(data) / 2, len(data) - 1} {
			if _, err := c.Decode(data[:cut]); err == nil {
				t.Errorf("%s: truncation at %d silently decoded", c.Name(), cut)
			}
		}
	}
}

func TestNewSketchMLValidation(t *testing.T) {
	bad := []func(o *Options){
		func(o *Options) { o.Buckets = 0 },
		func(o *Options) { o.SketchSize = 1 },
		func(o *Options) { o.Rows = 0 },
		func(o *Options) { o.ColsFraction = 0 },
		func(o *Options) { o.ColsFraction = 1.5 },
		func(o *Options) { o.Groups = 0 },
		func(o *Options) { o.Quantize = false }, // MinMax still on
	}
	for i, mut := range bad {
		o := DefaultOptions()
		mut(&o)
		if _, err := NewSketchML(o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestSensitivityKnobs(t *testing.T) {
	// Figure 13 / Table 3 knobs must all produce working codecs.
	rng := rand.New(rand.NewSource(16))
	g := randomGradient(rng, 200000, 3000)
	for _, mut := range []func(o *Options){
		func(o *Options) { o.Buckets = 128 },
		func(o *Options) { o.SketchSize = 256 },
		func(o *Options) { o.Rows = 4 },
		func(o *Options) { o.ColsFraction = 0.5 },
		func(o *Options) { o.Groups = 1 },
		func(o *Options) { o.Groups = 16 },
	} {
		o := DefaultOptions()
		mut(&o)
		c := MustSketchML(o)
		data, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.NNZ() != g.NNZ() {
			t.Fatalf("nnz mismatch for variant")
		}
	}
}

func TestMoreColsMoreAccurate(t *testing.T) {
	// Appendix B.2: widening the sketch (d/5 -> d/2) reduces decode error.
	rng := rand.New(rand.NewSource(17))
	g := randomGradient(rng, 300000, 6000)
	errFor := func(frac float64) float64 {
		o := DefaultOptions()
		o.ColsFraction = frac
		c := MustSketchML(o)
		data, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		// Keys decode losslessly, so the error is value against value.
		var sq float64
		for i, v := range g.Values {
			d := v - got.Values[i]
			sq += d * d
		}
		return sq
	}
	narrow, wide := errFor(0.05), errFor(0.5)
	if wide > narrow {
		t.Errorf("wider sketch error %.4e should not exceed narrow %.4e", wide, narrow)
	}
}

func BenchmarkSketchMLEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	g := randomGradient(rng, 2_000_000, 20000)
	c := MustSketchML(DefaultOptions())
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSketchMLDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	g := randomGradient(rng, 2_000_000, 20000)
	c := MustSketchML(DefaultOptions())
	data, err := c.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRawEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	g := randomGradient(rng, 2_000_000, 20000)
	c := &Raw{}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZipMLEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	g := randomGradient(rng, 2_000_000, 20000)
	c := &ZipML{Bits: 16}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
}
