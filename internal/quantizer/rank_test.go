package quantizer

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sketchml/internal/sketch/quantile"
)

// Property suite for BuildQuantileInto, held against the paper's streaming
// sketches. One checker holds the sort and the references to the paper's
// contract — every split's true rank within εN of its target — at each
// finder's own ε: the sort at 0 (the sort key is the full 64-bit pattern,
// so its resolution is exact), GK at its default 1/128, KLL at the 2% the
// paper's DataSketches baseline achieves. All must bucket by value (Index[i]
// is what Quantile.Bucket finds, so equal values share a bucket and every
// value lies inside its bucket's splits); what only the sort promises —
// populations within one of n/q on tie-free input — is checked for it alone.

// sketchBucketsInto is the reference: the pane builder as it was while the
// codec could still find its splits with a streaming sketch. It feeds the
// values through sk and buckets each with Quantile.Bucket.
func sketchBucketsInto(dst *Buckets, values []float64, q int, sk quantile.Sketch) error {
	if err := checkBuild(values, q); err != nil {
		return err
	}
	sk.InsertAll(values)
	splits, err := sk.Splits(q)
	if err != nil {
		return err
	}
	dst.splits = append(dst.splits[:0], splits...)
	dst.fillMeans()
	dst.Index = Resize(dst.Index, len(values))
	for i, v := range values {
		dst.Index[i] = uint32(dst.Bucket(v))
	}
	return nil
}

// rankInputs is the property matrix: the distributions of the quantile
// suites plus the shapes that break a sort-based finder if it is wrong —
// heavy ties, presorted input either way, and values that differ only
// below the 32 bits the counting passes see.
func rankInputs() map[string]func(rng *rand.Rand, n int) []float64 {
	draw := func(f func(*rand.Rand) float64) func(*rand.Rand, int) []float64 {
		return func(rng *rand.Rand, n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = f(rng)
			}
			return xs
		}
	}
	sorted := draw(func(r *rand.Rand) float64 { return r.ExpFloat64() * 0.02 })
	return map[string]func(*rand.Rand, int) []float64{
		"uniform":  draw(func(r *rand.Rand) float64 { return r.Float64() }),
		"gaussian": draw(func(r *rand.Rand) float64 { return r.NormFloat64() }),
		"pareto":   draw(func(r *rand.Rand) float64 { return math.Pow(1-r.Float64(), -1/1.2) }),
		// 90% of the values are one number: most splits coincide and the run
		// of ties crosses bucket boundaries on both sides.
		"heavy-ties": draw(func(r *rand.Rand) float64 {
			if r.Intn(10) > 0 {
				return 0.125
			}
			return r.Float64()
		}),
		"constant": draw(func(*rand.Rand) float64 { return 3.25 }),
		"sorted": func(rng *rand.Rand, n int) []float64 {
			xs := sorted(rng, n)
			sort.Float64s(xs)
			return xs
		},
		"reverse-sorted": func(rng *rand.Rand, n int) []float64 {
			xs := sorted(rng, n)
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
			return xs
		},
		// All within one 2⁻²⁰ relative window: every value ties on the high
		// half of its sort key, so the order comes from the tie-run repair.
		"low-bits-only": draw(func(r *rand.Rand) float64 {
			return math.Float64frombits(math.Float64bits(1.5) | uint64(r.Uint32()))
		}),
	}
}

// checkSplits asserts the shape of a q-bucket quantizer over values and
// the εN contract: splits non-decreasing, first and last the exact extremes,
// and for split b the target rank ⌊b·n/q⌋+1 within maxErr ranks of the rank
// range the split's value occupies in the sorted input (a repeated value
// occupies a range).
func checkSplits(t *testing.T, z *Quantile, values []float64, q int, maxErr float64) {
	t.Helper()
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	splits := z.Splits()
	if len(splits) != q+1 || len(z.Means()) != q {
		t.Fatalf("%d splits, %d means for q=%d", len(splits), len(z.Means()), q)
	}
	if splits[0] != sorted[0] || splits[q] != sorted[n-1] {
		t.Errorf("extremes [%v, %v], want the exact [%v, %v]", splits[0], splits[q], sorted[0], sorted[n-1])
	}
	for b := 1; b <= q; b++ {
		if splits[b] < splits[b-1] {
			t.Fatalf("splits decrease at %d: %v > %v", b, splits[b-1], splits[b])
		}
	}
	for b := 0; b < q; b++ {
		target := float64(b*n/q + 1)
		lo := float64(sort.SearchFloat64s(sorted, splits[b]) + 1)                        // first rank of the value
		hi := float64(sort.Search(n, func(i int) bool { return sorted[i] > splits[b] })) // last rank
		if target < lo-maxErr || target > hi+maxErr {
			t.Errorf("split %d = %v holds ranks [%v, %v], target %v is more than %v away", b, splits[b], lo, hi, target, maxErr)
		}
	}
}

// checkBuckets asserts that a build bucketed by value: every value lies
// inside its bucket's splits (exactly — no tolerance) and Index agrees with
// a search of the splits, which makes a value's bucket a function of the
// value alone.
func checkBuckets(t *testing.T, b *Buckets, values []float64, q int) {
	t.Helper()
	if len(b.Index) != len(values) {
		t.Fatalf("%d indexes for %d values", len(b.Index), len(values))
	}
	splits := b.Splits()
	for i, v := range values {
		bk := int(b.Index[i])
		if bk >= q {
			t.Fatalf("value %d in bucket %d of %d", i, bk, q)
		}
		if bk != b.Bucket(v) {
			t.Fatalf("Index[%d] = %d, Bucket(%v) = %d", i, bk, v, b.Bucket(v))
		}
		if !(splits[bk] <= v && v <= splits[bk+1]) {
			t.Fatalf("value %v in bucket %d = [%v, %v]", v, bk, splits[bk], splits[bk+1])
		}
	}
}

// checkRankPopulations asserts what exact ranks add on tie-free input:
// bucket populations are ⌊n/q⌋ or ⌈n/q⌉. Input with repeats is skipped —
// there equal values stay together and a bucket holds what the ties make it.
func checkRankPopulations(t *testing.T, b *Buckets, values []float64, q int) {
	t.Helper()
	seen := make(map[float64]bool, len(values))
	for _, v := range values {
		if seen[v] {
			return
		}
		seen[v] = true
	}
	counts := make([]int, q)
	for _, bk := range b.Index {
		counts[bk]++
	}
	n := len(values)
	for bk, c := range counts {
		if c != n/q && c != (n+q-1)/q {
			t.Errorf("bucket %d holds %d of %d values, want %d or %d", bk, c, n, n/q, (n+q-1)/q)
		}
	}
}

func TestSplitFindersHoldRankBound(t *testing.T) {
	const q = 256
	for name, gen := range rankInputs() {
		for _, n := range []int{1, 2, 31, 32, q, q + 1, 20000} {
			t.Run(fmt.Sprintf("%s/n%d", name, n), func(t *testing.T) {
				values := gen(rand.New(rand.NewSource(int64(n))), n)
				var b Buckets
				if err := BuildQuantileInto(&b, values, q); err != nil {
					t.Fatal(err)
				}
				checkSplits(t, &b.Quantile, values, q, 0)
				checkBuckets(t, &b, values, q)
				checkRankPopulations(t, &b, values, q)

				for _, ref := range []struct {
					sk  quantile.Sketch
					eps float64
				}{{quantile.NewWithSize(128), 1.0 / 128}, {quantile.NewKLL(256, 7), 0.02}} {
					if err := sketchBucketsInto(&b, values, q, ref.sk); err != nil {
						t.Fatal(err)
					}
					// Two ranks of slack: the sketches aim at rank ⌈b·n/q⌉, one
					// below the target used here, and round εn up.
					checkSplits(t, &b.Quantile, values, q, ref.eps*float64(n)+2)
					checkBuckets(t, &b, values, q)
				}
			})
		}
	}
}

// TestRankSplitsSpecialValues: the positive pane can hold +0, −0 (Encode
// routes both there) and subnormals, and a magnitude can be MaxFloat64;
// signed input must order as well, since BuildQuantileInto takes any values.
func TestRankSplitsSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := map[string][]float64{
		"zeros-and-subnormals": {0, negZero, 5e-324, 1e-310, negZero, 0, 2.2250738585072014e-308, 5e-324, 1, 0.5},
		"max-float":            {math.MaxFloat64, 1, 2, math.MaxFloat64, 3, 1e300, 4, 5},
		"signed":               {-1, 2, negZero, -math.MaxFloat64, 0, 1e-310, -1e-310, math.MaxFloat64, -3, 3},
	}
	for name, values := range cases {
		for _, q := range []int{1, 2, 4, len(values), len(values) + 3} {
			t.Run(fmt.Sprintf("%s/q%d", name, q), func(t *testing.T) {
				var b Buckets
				if err := BuildQuantileInto(&b, values, q); err != nil {
					t.Fatal(err)
				}
				checkSplits(t, &b.Quantile, values, q, 0)
				checkBuckets(t, &b, values, q)
				for i, m := range b.Means() {
					if math.IsNaN(m) || math.IsInf(m, 0) {
						t.Errorf("mean %d = %v", i, m)
					}
				}
			})
		}
	}
}

// TestRankTiesStayTogether: a run of equal values that reaches across
// bucket boundaries lands in one bucket — the first that starts at the
// value — wherever its copies sit in the input, and once the run fills a
// whole bucket that bucket decodes to the value itself.
func TestRankTiesStayTogether(t *testing.T) {
	// Sorted: 0.1 0.2 | 0.3 0.5 | 0.5 0.5 | 0.5 0.9 at q = 4: the 0.5s start
	// inside bucket 1, own bucket 2 and spill into bucket 3.
	values := []float64{0.5, 0.9, 0.1, 0.5, 0.3, 0.5, 0.2, 0.5}
	var b Buckets
	if err := BuildQuantileInto(&b, values, 4); err != nil {
		t.Fatal(err)
	}
	want := []uint32{2, 3, 0, 2, 1, 2, 0, 2}
	for i, bk := range b.Index {
		if bk != want[i] {
			t.Errorf("value %v in bucket %d, want %d", values[i], bk, want[i])
		}
	}
	if m := b.Mean(2); m != 0.5 {
		t.Errorf("the bucket of the repeated value decodes to %v, want 0.5", m)
	}
}

// TestRankBucketsReuse: a Buckets that has held a larger build gives the
// same result as a fresh one (nothing stale leaks out of the scratch), and a
// warm rebuild allocates nothing.
func TestRankBucketsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big, small := skewedGradients(rng, 30000), skewedGradients(rng, 700)
	var reused, fresh Buckets
	for _, values := range [][]float64{big, small, big} {
		if err := BuildQuantileInto(&reused, values, 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := BuildQuantileInto(&fresh, big, 64); err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Splits() {
		if reused.Splits()[i] != fresh.Splits()[i] {
			t.Fatalf("split %d: reused %v, fresh %v", i, reused.Splits()[i], fresh.Splits()[i])
		}
	}
	for i := range fresh.Index {
		if reused.Index[i] != fresh.Index[i] {
			t.Fatalf("index %d: reused %d, fresh %d", i, reused.Index[i], fresh.Index[i])
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := BuildQuantileInto(&reused, big, 64); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm rank build allocates %v objects, want 0", allocs)
	}
}

func TestBuildQuantileIntoErrors(t *testing.T) {
	var b Buckets
	if err := BuildQuantileInto(&b, nil, 8); err == nil {
		t.Error("empty values accepted")
	}
	if err := BuildQuantileInto(&b, []float64{1}, 0); err == nil {
		t.Error("q=0 accepted")
	}
}

func BenchmarkBuildQuantileRank256(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	vals := skewedGradients(rng, 20000)
	var bk Buckets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := BuildQuantileInto(&bk, vals, 256); err != nil {
			b.Fatal(err)
		}
	}
}
