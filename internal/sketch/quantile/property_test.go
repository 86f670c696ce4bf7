package quantile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// quantileDistributions is the property-test input matrix: the shapes the
// paper's gradients actually take (near-zero-concentrated, heavy-tailed)
// plus the degenerate constant stream that breaks naive split logic.
func quantileDistributions() map[string]func(*rand.Rand) float64 {
	return map[string]func(*rand.Rand) float64{
		"uniform":  func(r *rand.Rand) float64 { return r.Float64() },
		"gaussian": func(r *rand.Rand) float64 { return r.NormFloat64() },
		// Pareto with α=1.2: infinite variance, the adversarial case for
		// equal-population splits.
		"heavy-tailed": func(r *rand.Rand) float64 { return math.Pow(1-r.Float64(), -1/1.2) },
		"constant":     func(r *rand.Rand) float64 { return 3.25 },
	}
}

// checkRankBound verifies every queried quantile lands within maxErr ranks
// of its target, tolerating ties (a repeated value occupies a rank range).
func checkRankBound(t *testing.T, s Sketch, sorted []float64, maxErr float64) {
	t.Helper()
	n := float64(len(sorted))
	for _, phi := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got := mustQuery(t, s, phi)
		r := float64(trueRank(sorted, got))
		target := math.Ceil(phi * n)
		if phi == 0 {
			target = 1
		}
		if math.Abs(r-target) > maxErr+1 {
			lo := float64(sort.SearchFloat64s(sorted, got)) + 1
			if target >= lo && target <= r {
				continue // inside the tie range
			}
			t.Errorf("phi=%.2f: value %v has rank %v, want within %v of %v",
				phi, got, r, maxErr, target)
		}
	}
}

// TestRankErrorBoundAcrossDistributions is the ε-contract property test:
// for every distribution and several seeds, both quantile sketches must
// answer every rank query within ε·N of truth — the exact guarantee
// SketchML's bucket quantification is built on (GK: ε = 1/m by
// construction; KLL with k=256 is held to the 2% bound the paper's
// DataSketches baseline achieves).
func TestRankErrorBoundAcrossDistributions(t *testing.T) {
	const n = 20000
	for name, gen := range quantileDistributions() {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				gk := NewWithSize(128)
				kll := NewKLL(256, seed)
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = gen(rng)
					gk.Insert(xs[i])
					kll.Insert(xs[i])
				}
				sort.Float64s(xs)
				checkRankBound(t, gk, xs, gk.eps*n)
				checkRankBound(t, kll, xs, 0.02*n)
			}
		})
	}
}

// TestPrunePreservesGuarantee forces heavy pruning — 100k inserts in four
// shards whose scales differ by up to four orders of magnitude, each flush
// compressing the summary back under its size bound — and checks the ε
// rank guarantee and the space bound both survive. A prune that dropped
// the wrong tuples would show up here as a rank excursion beyond the bound.
func TestPrunePreservesGuarantee(t *testing.T) {
	const shard = 25000
	rng := rand.New(rand.NewSource(31))
	s := NewWithSize(128)
	var xs []float64
	for part := 0; part < 4; part++ {
		for i := 0; i < shard; i++ {
			v := rng.NormFloat64() * math.Pow(10, float64(part-2)) // scales differ per shard
			s.Insert(v)
			xs = append(xs, v)
		}
	}
	sort.Float64s(xs)
	n := float64(len(xs))
	// The four-shard bound, 4·ε with ε = 1/128.
	checkRankBound(t, s, xs, 4.0/128*n)
	// Prune must keep the summary near its O((1/ε)·log(εn)) footprint.
	s.flush()
	if size := len(s.tuples); size > 6000 {
		t.Errorf("summary size %d after 100k inserts, prune is not compressing", size)
	}
}
