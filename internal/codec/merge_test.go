package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"sketchml/internal/gradient"
)

// Property suite for the wire-to-wire Merger contract. The reference for
// every check is the "concatenated stream": decode both inputs exactly,
// sum the key union in float64, and compare the merged message against
// that ground truth — values within compounded quantile rank-error bounds
// for SketchML, bit-exactly for Raw.

// mergeDistributions are the value shapes the rank-error property sweeps:
// the bucket layout a quantile sketch builds is entirely different for
// flat, bell, and heavy-tailed data.
var mergeDistributions = map[string]func(*rand.Rand) float64{
	"uniform":  func(r *rand.Rand) float64 { return r.Float64() + 0.01 },
	"gaussian": func(r *rand.Rand) float64 { return r.NormFloat64() },
	"pareto":   func(r *rand.Rand) float64 { return math.Pow(1-r.Float64(), -1/1.5) },
}

// distGradient draws nnz values from the distribution over a dim key space.
func distGradient(rng *rand.Rand, dist func(*rand.Rand) float64, dim uint64, nnz int) *gradient.Sparse {
	m := map[uint64]float64{}
	for len(m) < nnz {
		v := dist(rng)
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		m[uint64(rng.Int63n(int64(dim)))] = v
	}
	return gradient.FromMap(dim, m)
}

// exactSum computes the float64 key-union sum of two gradients — the
// "encode the concatenated stream" reference.
func exactSum(a, b *gradient.Sparse) *gradient.Sparse {
	m := map[uint64]float64{}
	for i, k := range a.Keys {
		m[k] += a.Values[i]
	}
	for i, k := range b.Keys {
		m[k] += b.Values[i]
	}
	for k, v := range m {
		if v == 0 {
			delete(m, k)
		}
	}
	return gradient.FromMap(a.Dim, m)
}

// rankIn returns v's rank within the sorted slice.
func rankIn(sorted []float64, v float64) int { return sort.SearchFloat64s(sorted, v) }

// TestMergeMatchesConcatenatedStream is the fidelity property: for each
// distribution, MergeInto(nil, Encode(g1), Encode(g2)) must decode to the key-union
// sum within compounded quantile rank-error bounds. Keys are exact, signs
// never flip, and each decoded value's rank displacement within its sign
// pane stays within 4 bucket widths — one bucket width plus one sketch-ε
// rank-error allowance (εN ≤ N/q at the configured sketch size) for each of
// the two quantization stages (child encode, merge re-quantize).
func TestMergeMatchesConcatenatedStream(t *testing.T) {
	const dim = 1 << 20
	const nnz = 2500
	for name, dist := range mergeDistributions {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			opts := DefaultOptions()
			opts.MinMax = false
			c := MustSketchML(opts)
			g1 := distGradient(rng, dist, dim, nnz)
			g2 := distGradient(rng, dist, dim, nnz)
			m1, err := c.Encode(g1)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := c.Encode(g2)
			if err != nil {
				t.Fatal(err)
			}
			// The merge sums *decoded* child gradients (each already one
			// quantization deep); the reference for rank checking is the
			// sum of those decodes, and g1+g2 backs the sign check.
			d1, err := c.Decode(m1)
			if err != nil {
				t.Fatal(err)
			}
			d2, err := c.Decode(m2)
			if err != nil {
				t.Fatal(err)
			}
			want := exactSum(d1, d2)

			merged, err := c.MergeInto(nil, m1, m2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Decode(merged)
			if err != nil {
				t.Fatalf("merged message does not decode: %v", err)
			}
			if got.Dim != want.Dim || len(got.Keys) != len(want.Keys) {
				t.Fatalf("shape: got %d keys, want %d", len(got.Keys), len(want.Keys))
			}
			// Pane-wise sorted magnitudes for rank displacement checks.
			var pos, neg []float64
			for i := range want.Keys {
				if want.Values[i] >= 0 {
					pos = append(pos, want.Values[i])
				} else {
					neg = append(neg, -want.Values[i])
				}
			}
			sort.Float64s(pos)
			sort.Float64s(neg)
			budget := func(n int) int {
				q := opts.Buckets
				if c := n / 16; c < q {
					q = c
				}
				if q < 2 {
					q = 2
				}
				return 4 * (n/q + 1)
			}
			posBudget, negBudget := budget(len(pos)), budget(len(neg))
			for i, k := range want.Keys {
				if got.Keys[i] != k {
					t.Fatalf("key %d decoded as %d, want %d (keys must survive merging exactly)", i, got.Keys[i], k)
				}
				wv, gv := want.Values[i], got.Values[i]
				if wv*gv < 0 {
					t.Fatalf("key %d sign flipped: %g -> %g", k, wv, gv)
				}
				var drift, bound int
				if wv >= 0 {
					drift = rankIn(pos, gv) - rankIn(pos, wv)
					bound = posBudget
				} else {
					drift = rankIn(neg, -gv) - rankIn(neg, -wv)
					bound = negBudget
				}
				if drift < 0 {
					drift = -drift
				}
				if drift > bound {
					t.Errorf("key %d: decoded %g vs exact %g drifts %d ranks (> %d = 4 bucket widths of %d values)",
						k, gv, wv, drift, bound, len(pos))
				}
			}
		})
	}
}

// TestMergeRawBitExact: the lossless codec's merge must reproduce the
// key-union float64 sum bit for bit, in both precisions.
func TestMergeRawBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []*Raw{{}, {Float32: true}} {
		g1 := randomGradient(rng, 1<<22, 1500)
		g2 := randomGradient(rng, 1<<22, 1500)
		m1, _ := c.Encode(g1)
		m2, _ := c.Encode(g2)
		d1, err := c.Decode(m1)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := c.Decode(m2)
		if err != nil {
			t.Fatal(err)
		}
		want := exactSum(d1, d2)
		merged, err := c.MergeInto(nil, m1, m2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(merged)
		if err != nil {
			t.Fatal(err)
		}
		// Float32 output re-rounds the sum; compare in the output precision.
		if c.Float32 {
			for i := range want.Values {
				want.Values[i] = float64(float32(want.Values[i]))
			}
		}
		requireSameGradient(t, want, got)
	}
}

// TestMergeCommutative: merged bytes must not depend on argument order, on
// both the exact-means and the re-quantize path, for every Merger.
func TestMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	small := DefaultOptions()
	small.MinMax = false
	mergers := map[string]Merger{
		"Raw":                     &Raw{},
		"Raw float32":             &Raw{Float32: true},
		"SketchML":                MustSketchML(DefaultOptions()),
		"SketchML explicit-index": MustSketchML(small),
	}
	for name, m := range mergers {
		t.Run(name, func(t *testing.T) {
			c := m.(Codec)
			for _, nnz := range []int{12, 400, 3000} { // spans exact-means and re-quantize panes
				g1 := randomGradient(rng, 1<<20, nnz)
				g2 := randomGradient(rng, 1<<20, nnz)
				m1, err := c.Encode(g1)
				if err != nil {
					t.Fatal(err)
				}
				m2, err := c.Encode(g2)
				if err != nil {
					t.Fatal(err)
				}
				ab, err := m.MergeInto(nil, m1, m2)
				if err != nil {
					t.Fatal(err)
				}
				ba, err := m.MergeInto(nil, m2, m1)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ab, ba) {
					t.Fatalf("nnz %d: merging a,b and b,a differ", nnz)
				}
			}
		})
	}
}

// TestMergeAssociativeOnExactPath pins the format's associativity boundary:
// while every pane stays on the lossless exact-means path (forced here via
// the test cap override), (a⊕b)⊕c and a⊕(b⊕c) are byte-identical — every
// summed value survives verbatim, so the grouping cannot show. The
// re-quantize path deliberately breaks this (it re-buckets through a sketch
// built from the intermediate sums), which is why the trainer's topologies
// fix a deterministic merge order instead of relying on associativity.
func TestMergeAssociativeOnExactPath(t *testing.T) {
	mergeMeansCapOverride = 1 << 20
	defer func() { mergeMeansCapOverride = 0 }()
	rng := rand.New(rand.NewSource(23))
	opts := DefaultOptions()
	opts.MinMax = false
	for name, c := range map[string]interface {
		Codec
		Merger
	}{"SketchML": MustSketchML(opts), "Raw": &Raw{}} {
		t.Run(name, func(t *testing.T) {
			gs := make([][]byte, 3)
			for i := range gs {
				msg, err := c.Encode(randomGradient(rng, 1<<20, 900))
				if err != nil {
					t.Fatal(err)
				}
				gs[i] = msg
			}
			ab, err := c.MergeInto(nil, gs[0], gs[1])
			if err != nil {
				t.Fatal(err)
			}
			abc1, err := c.MergeInto(nil, ab, gs[2])
			if err != nil {
				t.Fatal(err)
			}
			bc, err := c.MergeInto(nil, gs[1], gs[2])
			if err != nil {
				t.Fatal(err)
			}
			abc2, err := c.MergeInto(nil, gs[0], bc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(abc1, abc2) {
				t.Fatal("(a⊕b)⊕c != a⊕(b⊕c) on the exact-means path")
			}
		})
	}
}

// exactMeansOracle is exactMeans as it was before the bounded probe: sort a
// copy of the whole pane, drop repeats, and binary-search each value's rank.
func exactMeansOracle(vals []float64, q int) (means []float64, idx []uint32, ok bool) {
	if mergeMeansCapOverride > 0 {
		q = mergeMeansCapOverride
	}
	dist := append([]float64(nil), vals...)
	sort.Float64s(dist)
	d := dist[:1]
	for _, v := range dist[1:] {
		if v != d[len(d)-1] {
			d = append(d, v)
		}
	}
	if len(d) > q {
		return nil, nil, false
	}
	idx = make([]uint32, len(vals))
	for i, v := range vals {
		idx[i] = uint32(sort.SearchFloat64s(d, v))
	}
	return d, idx, true
}

// paletteSum builds a merged sum whose two sign panes hold m entries each,
// with magnitudes cycling through p distinct values (every value distinct
// when p is 0).
func paletteSum(rng *rand.Rand, m, p int) *gradient.Sparse {
	mags := make([]float64, p)
	for i := range mags {
		mags[i] = rng.ExpFloat64() + 1e-3
	}
	g := &gradient.Sparse{Dim: uint64(2 * m)}
	for k, j := range rng.Perm(2 * m) {
		v := rng.ExpFloat64() + 1e-3
		if p > 0 {
			v = mags[j%m%p]
		}
		if j >= m {
			v = -v
		}
		g.Keys = append(g.Keys, uint64(k))
		g.Values = append(g.Values, v)
	}
	return g
}

// TestExactMeansMatchesOracle holds the bounded probe to the sort it
// replaced, on both panes of a merged sum: palettes of 1, q−1, q, q+1 and 4q
// distinct magnitudes and panes whose every value is distinct, under the
// pane's own budget q and under cap overrides up to 1<<16. The pane's own
// budget must split the palettes where the exact path ends.
func TestExactMeansMatchesOracle(t *testing.T) {
	defer func() { mergeMeansCapOverride = 0 }()
	rng := rand.New(rand.NewSource(53))
	c := MustSketchML(DefaultOptions())
	ms := new(mergeScratch)
	for _, m := range []int{1, 40, 4096} {
		q := c.paneBudget(m)
		for _, p := range []int{1, q - 1, q, q + 1, 4 * q, 0} {
			if p > m {
				continue
			}
			g := paletteSum(rng, m, p)
			for _, capq := range []int{0, 2, q + 1, 1 << 10, 1 << 16} {
				mergeMeansCapOverride = capq
				for pane := uint64(0); pane < 2; pane++ {
					es := getEncodeScratch()
					_, vals := es.takePane(g, pane)
					wantMeans, wantIdx, wantOK := exactMeansOracle(vals, q)
					means, idx, ok := ms.exactMeans(vals, q)
					name := fmt.Sprintf("m=%d palette=%d cap=%d pane=%d", m, p, capq, pane)
					if ok != wantOK || !slices.Equal(means, wantMeans) || !slices.Equal(idx, wantIdx) {
						t.Errorf("%s: probe gave ok=%v, %d means; the sort gave ok=%v, %d means",
							name, ok, len(means), wantOK, len(wantMeans))
					}
					if capq == 0 && p > 0 && ok != (p <= q) {
						t.Errorf("%s: ok=%v with %d distinct values and budget %d", name, ok, p, q)
					}
					putEncodeScratch(es)
				}
			}
		}
	}
}

// TestExactMeansBoundedWork is the probe's work bound, counted in memory
// rather than time: a pane over budget stops the probe at the (q+1)-th
// distinct value, so the scratch it grew is O(q), not O(n), however long
// the pane.
func TestExactMeansBoundedWork(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	c := MustSketchML(DefaultOptions())
	const n = 50_000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.ExpFloat64() + 1e-3
	}
	q := c.paneBudget(n)
	ms := new(mergeScratch)
	if _, _, ok := ms.exactMeans(vals, q); ok {
		t.Fatalf("%d distinct values fit a budget of %d", n, q)
	}
	for name, got := range map[string]int{
		"dist": cap(ms.dist), "set": cap(ms.set), "rank": cap(ms.rank), "idx": cap(ms.idx),
	} {
		if got > 4*(q+1) {
			t.Errorf("%s grew to %d entries on a failed probe of %d values, want at most 4(q+1) = %d",
				name, got, n, 4*(q+1))
		}
	}
}

// TestMergeIntoZeroAllocWarm mirrors the DecodeInto allocation contract:
// once the pooled scratch and the destination have warmed, MergeInto
// performs zero allocations — on the exact-means path (forced here by
// raising the cap; a tree run takes it only in its first round), on the
// re-quantize path (random values overflow the cap, and the splits come
// from the same pooled builder Encode uses) and for Raw. Skipped under
// -race: the detector's instrumentation allocates.
func TestMergeIntoZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	defer func() { mergeMeansCapOverride = 0 }()
	rng := rand.New(rand.NewSource(29))
	opts := DefaultOptions()
	opts.MinMax = false
	for _, tc := range []struct {
		name     string
		m        Merger
		nnz      int
		exactCap int // mergeMeansCapOverride; 0 leaves the pane's own budget
	}{
		{"SketchML", MustSketchML(opts), 1200, 1 << 20},
		{"SketchML_requantize", MustSketchML(opts), 5000, 0},
		{"Raw", &Raw{}, 1200, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mergeMeansCapOverride = tc.exactCap
			c := tc.m.(Codec)
			m1, err := c.Encode(randomGradient(rng, 1<<20, tc.nnz))
			if err != nil {
				t.Fatal(err)
			}
			m2, err := c.Encode(randomGradient(rng, 1<<20, tc.nnz))
			if err != nil {
				t.Fatal(err)
			}
			var dst []byte
			for i := 0; i < 8; i++ { // warm pools and dst capacity
				if dst, err = tc.m.MergeInto(dst, m1, m2); err != nil {
					t.Fatal(err)
				}
			}
			// GOMAXPROCS 1 and 2: Options.Parallelism 0 resolves differently
			// on a multi-core host, and the contract holds on both.
			for _, procs := range []int{1, 2} {
				allocs := mallocsPerRun(procs, 100, func() {
					var err error
					dst, err = tc.m.MergeInto(dst, m1, m2)
					if err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("GOMAXPROCS=%d: warm MergeInto allocates %d objects/op, want 0", procs, allocs)
				}
			}
		})
	}
}

// TestMergeIntoAliasing mirrors decodeinto_test.go's aliasing contract: dst
// may alias either input, because both inputs are fully parsed before the
// first output byte is written.
func TestMergeIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	opts := DefaultOptions()
	opts.MinMax = false
	for name, m := range map[string]Merger{"SketchML": MustSketchML(opts), "Raw": &Raw{}} {
		t.Run(name, func(t *testing.T) {
			c := m.(Codec)
			m1, err := c.Encode(randomGradient(rng, 1<<20, 800))
			if err != nil {
				t.Fatal(err)
			}
			m2, err := c.Encode(randomGradient(rng, 1<<20, 800))
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.MergeInto(nil, m1, m2)
			if err != nil {
				t.Fatal(err)
			}
			// dst aliases input a: hand MergeInto a's own backing array.
			a := append(make([]byte, 0, len(m1)+len(want)), m1...)
			got, err := m.MergeInto(a, a, m2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("MergeInto with dst aliasing input a diverges from a fresh dst")
			}
			// dst aliases input b.
			b := append(make([]byte, 0, len(m2)+len(want)), m2...)
			got, err = m.MergeInto(b, m1, b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("MergeInto with dst aliasing input b diverges from a fresh dst")
			}
		})
	}
}

// TestMergeCancellation: merging a gradient with its negation must produce
// a decodable empty message — exact zero sums are dropped, never encoded.
func TestMergeCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := randomGradient(rng, 1<<18, 300)
	ng := &gradient.Sparse{Dim: g.Dim, Keys: g.Keys, Values: make([]float64, len(g.Values))}
	for i, v := range g.Values {
		ng.Values[i] = -v
	}
	c := &Raw{}
	m1, _ := c.Encode(g)
	m2, _ := c.Encode(ng)
	merged, err := c.MergeInto(nil, m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(merged)
	if err != nil {
		t.Fatalf("cancelled merge does not decode: %v", err)
	}
	if len(dec.Keys) != 0 {
		t.Errorf("full cancellation left %d keys", len(dec.Keys))
	}
}

// TestMergeErrors: structural failures must be loud errors, never junk
// messages.
func TestMergeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	opts := DefaultOptions()
	opts.MinMax = false
	sk := MustSketchML(opts)
	raw := &Raw{}
	skMsg, _ := sk.Encode(randomGradient(rng, 1<<20, 500))
	rawMsg, _ := raw.Encode(randomGradient(rng, 1<<20, 500))

	if _, err := sk.MergeInto(nil, skMsg, skMsg[:10]); err == nil {
		t.Error("truncated input accepted")
	}
	if _, err := raw.MergeInto(nil, rawMsg[:1], rawMsg); err == nil {
		t.Error("truncated raw input accepted")
	}
	other, _ := sk.Encode(randomGradient(rng, 1<<21, 500))
	if _, err := sk.MergeInto(nil, skMsg, other); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Overflow to +Inf must be rejected: the sum of two near-max values is
	// not representable, and a message carrying Inf would poison the model.
	big := &gradient.Sparse{Dim: 8, Keys: []uint64{3}, Values: []float64{math.MaxFloat64}}
	bm, err := raw.Encode(big)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.MergeInto(nil, bm, bm); err == nil {
		t.Error("non-finite sum accepted")
	}
}

// TestMergeSumGrowsOnce holds the merge's sum buffer to the codec's one
// growth rule: warm on a small pair, a larger pair grows it once — one
// allocation for its keys and one for its values — and the small pair
// after it allocates nothing. Summing by append grew it a doubling at a
// time instead (35 allocations here). The counts are process-wide, so each
// is the least of three fresh runs. Skipped under -race: the detector's
// instrumentation allocates.
func TestMergeSumGrowsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rng := rand.New(rand.NewSource(31))
	small := [2]*gradient.Sparse{randomGradient(rng, 1<<20, 300), randomGradient(rng, 1<<20, 300)}
	large := [2]*gradient.Sparse{randomGradient(rng, 1<<20, 20000), randomGradient(rng, 1<<20, 20000)}
	sum := func(ms *mergeScratch, pair [2]*gradient.Sparse) uint64 {
		ms.ga, ms.gb = *pair[0], *pair[1]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ms.sum()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if want := exactSum(pair[0], pair[1]); !gradientsEqual(got, want) {
			t.Fatalf("sum of %d and %d entries differs from the exact sum", pair[0].NNZ(), pair[1].NNZ())
		}
		return after.Mallocs - before.Mallocs
	}
	grow, again := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		var ms mergeScratch
		for i := 0; i < 3; i++ {
			sum(&ms, small)
		}
		grow = min(grow, sum(&ms, large))
		again = min(again, sum(&ms, small))
	}
	if grow > 2 {
		t.Errorf("the larger pair grew the sum with %d allocations, want one each for keys and values", grow)
	}
	if again != 0 {
		t.Errorf("the small pair after it allocated %d times, want 0", again)
	}
}

// mergeGoldenVec pins one merged-message configuration. Both input
// gradients regenerate from their seeds (via the goldenVec generator), so
// the fixture bytes are a pure function of (seeds, geometry, Options), and
// decoded is the decodedHash they decode to, as in goldenVectors.
type mergeGoldenVec struct {
	name    string
	opts    Options
	a, b    goldenVec
	decoded uint64
}

func mergeGoldenVectors() []mergeGoldenVec {
	mk := func(mut func(*Options)) Options {
		o := DefaultOptions()
		o.MinMax = false // merged output is always MinMax-off; match the inputs
		if mut != nil {
			mut(&o)
		}
		return o
	}
	quan := mk(nil)
	keyOnly := mk(func(o *Options) { o.Quantize = false })
	return []mergeGoldenVec{
		// As in goldenVectors, each fixture is named ef_ after the retired
		// merge fixture of its configuration and decodes to its values.
		//
		// Raw-layout output: unquantized inputs merge to the key+f64 layout.
		{name: "ef_merge_key_only", opts: keyOnly, decoded: 0xd7b05e4239eeba74,
			a: goldenVec{opts: keyOnly, dim: 100000, nnz: 1200, seed: 2005},
			b: goldenVec{opts: keyOnly, dim: 100000, nnz: 1200, seed: 2006}},
		// Re-quantize path: two default-sized panes overflow the exact cap.
		{name: "ef_rank_merge_keyquan", opts: quan, decoded: 0x94b6fd64b931d54c,
			a: goldenVec{opts: quan, dim: 100000, nnz: 1200, seed: 2001},
			b: goldenVec{opts: quan, dim: 100000, nnz: 1200, seed: 2002}},
		// The exact-means boundary (TestMergeGoldenBoundary): all-positive
		// inputs, so the merged pane is a's bucket means plus b's one value.
		// 255+1 entries: budget 16, 16 distinct sums, the exact path.
		// 254+1 entries: budget 15, 16 distinct sums, one past it.
		{name: "ef_rank_merge_at_budget", opts: quan, decoded: 0xd41ea1a27ed42597,
			a: goldenVec{dim: 100000, nnz: 255, seed: 2007, sign: 1},
			b: goldenVec{dim: 100000, nnz: 1, seed: 2008, sign: 1}},
		{name: "ef_rank_merge_over_budget", opts: quan, decoded: 0x8ae3ae2fecc0b2f9,
			a: goldenVec{dim: 100000, nnz: 254, seed: 2007, sign: 1},
			b: goldenVec{dim: 100000, nnz: 1, seed: 2008, sign: 1}},
	}
}

// TestMergeGoldenBoundary checks that the boundary fixtures sit where their
// names say: the merged pane holds exactly paneBudget distinct sums, and
// exactly one more. The sums are taken from the decoded inputs, so the
// check does not depend on which path the merge took.
func TestMergeGoldenBoundary(t *testing.T) {
	over := map[string]int{"ef_rank_merge_at_budget": 0, "ef_rank_merge_over_budget": 1}
	for _, v := range mergeGoldenVectors() {
		want, ok := over[v.name]
		if !ok {
			continue
		}
		t.Run(v.name, func(t *testing.T) {
			c := MustSketchML(v.opts)
			var in [2]*gradient.Sparse
			for i, gv := range []goldenVec{v.a, v.b} {
				msg, err := c.Encode(gv.gradient())
				if err != nil {
					t.Fatal(err)
				}
				if in[i], err = c.Decode(msg); err != nil {
					t.Fatal(err)
				}
			}
			sum := exactSum(in[0], in[1])
			distinct := map[float64]bool{}
			for _, s := range sum.Values {
				if s < 0 {
					t.Fatalf("negative sum %g: the boundary vectors are single-pane", s)
				}
				distinct[s] = true
			}
			if q := c.paneBudget(len(sum.Values)); len(distinct) != q+want {
				t.Fatalf("merged pane has %d distinct sums, budget %d: want budget%+d", len(distinct), q, want)
			}
		})
	}
}

func (v mergeGoldenVec) fixturePath() string {
	return filepath.Join("testdata", "golden", v.name+".bin")
}

// merged regenerates the two inputs, encodes each, and merges the wire
// messages — the full interior-node path a tree gather runs.
func (v mergeGoldenVec) merged(t *testing.T) []byte {
	t.Helper()
	c := MustSketchML(v.opts)
	ma, err := c.Encode(v.a.gradient())
	if err != nil {
		t.Fatal(err)
	}
	mb, err := c.Encode(v.b.gradient())
	if err != nil {
		t.Fatal(err)
	}
	merged, err := c.MergeInto(nil, ma, mb)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// comparePinnedFixture byte-compares enc against the committed fixture, or
// rewrites the fixture under -update.
func comparePinnedFixture(t *testing.T, path string, enc []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(enc))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("wire bytes changed: %d bytes != fixture %d bytes (first diff at %d)",
			len(enc), len(want), firstDiff(enc, want))
	}
}

// TestMergeGoldenVectors pins the merged-message wire bytes the same way
// goldenvec_test.go pins encoded ones: fixtures are a pure function of the
// (seed, geometry, Options) inputs, refreshed with -update, and must decode
// to their pinned values. Each retired merge fixture must be refused.
func TestMergeGoldenVectors(t *testing.T) {
	for _, v := range mergeGoldenVectors() {
		t.Run(v.name, func(t *testing.T) {
			comparePinnedFixture(t, v.fixturePath(), v.merged(t))
			if *updateGolden {
				return
			}
			msg, err := os.ReadFile(v.fixturePath())
			if err != nil {
				t.Fatal(err)
			}
			dec, err := MustSketchML(v.opts).Decode(msg)
			if err != nil {
				t.Fatalf("merged fixture does not decode: %v", err)
			}
			if h := decodedHash(dec); h != v.decoded {
				t.Errorf("fixture decodes to hash 0x%016x, pinned 0x%016x", h, v.decoded)
			}
		})
	}
	for _, name := range retiredMergeFixtures {
		t.Run(name, func(t *testing.T) { requireRetiredRefused(t, name) })
	}
}

// TestMergeGoldenVectorsPerturbation: flipping any single probed byte of a
// committed merged message must be loud — a decode error or changed output
// — and must not make a retired one decode.
func TestMergeGoldenVectorsPerturbation(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures being rewritten")
	}
	for _, v := range mergeGoldenVectors() {
		t.Run(v.name, func(t *testing.T) {
			c := MustSketchML(v.opts)
			msg, err := os.ReadFile(v.fixturePath())
			if err != nil {
				t.Fatal(err)
			}
			clean, err := c.Decode(msg)
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range []int{0, 1, len(msg) / 2, len(msg) - 1} {
				t.Run(fmt.Sprintf("byte%d", pos), func(t *testing.T) {
					mut := append([]byte(nil), msg...)
					mut[pos] ^= 0xFF
					dec, err := c.Decode(mut)
					if err != nil {
						return // loud failure: exactly what we want
					}
					if gradientsEqual(clean, dec) {
						t.Errorf("flipping byte %d of %d went unnoticed", pos, len(msg))
					}
				})
			}
		})
	}
	for _, name := range retiredMergeFixtures {
		t.Run(name, func(t *testing.T) {
			msg := requireRetiredRefused(t, name)
			requireFlipsRefused(t, msg, []int{0, 1, len(msg) / 2, len(msg) - 1})
		})
	}
}
