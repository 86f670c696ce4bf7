package model

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
)

// oracleBatchGradient is BatchGradient as it stood before the term sort:
// every term added into a hash map, the regularizer added per map key, the
// map read out through gradient.FromMap. It is kept here as the reference
// the production path must match bit for bit. The one edit is the float64
// conversion around each product, which keeps an FMA-fusing compiler from
// rounding the reference differently from a path that stores the product.
func oracleBatchGradient(m Model, theta []float64, batch []*dataset.Instance, lambda float64) (*gradient.Sparse, float64) {
	acc := map[uint64]float64{}
	var lossSum float64
	inv := 1.0
	if len(batch) > 0 {
		inv = 1.0 / float64(len(batch))
	}
	for _, in := range batch {
		margin := in.Dot(theta)
		lossSum += m.InstanceLoss(margin, in.Label)
		s := m.ScalarGrad(margin, in.Label) * inv
		if s == 0 {
			continue
		}
		for j, k := range in.Keys {
			acc[k] += float64(s * in.Values[j])
		}
	}
	if lambda != 0 {
		for k := range acc {
			acc[k] += float64(lambda * theta[k])
		}
	}
	g := gradient.FromMap(uint64(len(theta)), acc)
	return g, lossSum * inv
}

// oracleTrainables are the models of the shape matrix: the three linear
// ones.
func oracleTrainables() []Trainable {
	return []Trainable{Wrap(LogisticRegression{}), Wrap(SVM{}), Wrap(Linear{})}
}

// requireMatchesMap runs tr.BatchGradient and its map oracle on one input
// and demands the same keys, the same value bits and the same loss bits. It
// then demands the same of tr's BatchGradientInto, into a dirty destination
// longer than the gradient, of another Dim, holding stale entries: the
// storage a worker keeps across rounds.
func requireMatchesMap(t testing.TB, tr Trainable, theta []float64, batch []*dataset.Instance, lambda float64) *gradient.Sparse {
	t.Helper()
	got, gotLoss := tr.BatchGradient(theta, batch, lambda)
	want, wantLoss := oracleBatchGradient(tr.(glmAdapter).m, theta, batch, lambda)
	requireSameGradient(t, tr.Name()+" BatchGradient", lambda, got, gotLoss, want, wantLoss)
	dirty := &gradient.Sparse{Dim: want.Dim + 9, Keys: make([]uint64, len(want.Keys)+7), Values: make([]float64, len(want.Keys)+7)}
	for i := range dirty.Keys {
		dirty.Keys[i], dirty.Values[i] = uint64(2*i+1), math.NaN()
	}
	reused, reusedLoss := BatchGradientReuse(tr, dirty, theta, batch, lambda)
	if reused != dirty {
		t.Fatalf("%s: BatchGradientReuse did not fill the destination it was given", tr.Name())
	}
	requireSameGradient(t, tr.Name()+" BatchGradientInto", lambda, reused, reusedLoss, want, wantLoss)
	return got
}

// requireSameGradient demands got's keys, value bits and loss bits equal
// want's.
func requireSameGradient(t testing.TB, name string, lambda float64, got *gradient.Sparse, gotLoss float64, want *gradient.Sparse, wantLoss float64) {
	t.Helper()
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Fatalf("%s λ=%v: loss %v, map oracle %v", name, lambda, gotLoss, wantLoss)
	}
	if got.Dim != want.Dim || len(got.Keys) != len(want.Keys) || len(got.Values) != len(got.Keys) {
		t.Fatalf("%s λ=%v: dim %d with %d keys / %d values, map oracle dim %d with %d keys",
			name, lambda, got.Dim, len(got.Keys), len(got.Values), want.Dim, len(want.Keys))
	}
	for i, k := range want.Keys {
		if got.Keys[i] != k {
			t.Fatalf("%s λ=%v: key[%d] = %d, map oracle %d", name, lambda, i, got.Keys[i], k)
		}
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("%s λ=%v: value at key %d = %v (%#x), map oracle %v (%#x)", name, lambda, k,
				got.Values[i], math.Float64bits(got.Values[i]), want.Values[i], math.Float64bits(want.Values[i]))
		}
	}
}

// thetaFor returns a parameter vector for tr over featureDim features:
// Gaussian weights on a seeded half of the coordinates, so margins are
// nonzero and the regularizer has exact zeros to meet.
func thetaFor(tr Trainable, featureDim uint64, rng *rand.Rand) []float64 {
	theta := make([]float64, tr.ParamDim(featureDim))
	for i := range theta {
		if rng.Intn(2) == 0 {
			theta[i] = rng.NormFloat64() * 0.3
		}
	}
	return theta
}

// zipfBatch draws n instances of up to nnz distinct Zipf keys each: a few
// keys are in nearly every instance, most in one.
func zipfBatch(rng *rand.Rand, dim uint64, n, nnz int, regression bool) []*dataset.Instance {
	z := rand.NewZipf(rng, 1.05, 1, dim-1)
	batch := make([]*dataset.Instance, n)
	for i := range batch {
		seen := map[uint64]float64{}
		for j := 0; j < nnz; j++ {
			seen[z.Uint64()] = rng.NormFloat64()
		}
		g := gradient.FromMap(dim, seen)
		in := &dataset.Instance{Keys: g.Keys, Values: g.Values, Label: 1}
		switch {
		case regression:
			in.Label = rng.NormFloat64()
		case rng.Intn(2) == 0:
			in.Label = -1
		}
		batch[i] = in
	}
	return batch
}

func isRegression(tr Trainable) bool {
	_, linear := tr.(glmAdapter).m.(Linear)
	return linear
}

// TestBatchGradientMatchesMapRandom sweeps the models, both regularizer
// settings and batch sizes from one instance up, on Zipf batches whose head
// keys collect a term from almost every instance.
func TestBatchGradientMatchesMapRandom(t *testing.T) {
	for _, tr := range oracleTrainables() {
		for _, lambda := range []float64{0, 0.01} {
			for _, shape := range []struct {
				dim    uint64
				n, nnz int
			}{{8, 1, 3}, {50, 40, 12}, {3000, 200, 20}, {1 << 12, 64, 40}, {1<<22 + 5, 30, 25}} {
				if shape.dim > 1<<22 && tr.Name() != "LR" {
					continue // the three-pass shape costs a 32 MB theta; once is enough
				}
				rng := rand.New(rand.NewSource(int64(shape.dim) + int64(shape.n)))
				theta := thetaFor(tr, shape.dim, rng)
				batch := zipfBatch(rng, shape.dim, shape.n, shape.nnz, isRegression(tr))
				g := requireMatchesMap(t, tr, theta, batch, lambda)
				if g.NNZ() == 0 {
					t.Fatalf("%s dim %d: empty gradient from %d instances", tr.Name(), shape.dim, shape.n)
				}
			}
		}
	}
}

// TestBatchGradientMatchesMapEdges holds the hand-built corners of the shape
// matrix against the map oracle, and pins what each must produce.
func TestBatchGradientMatchesMapEdges(t *testing.T) {
	inst := func(label float64, kv ...float64) *dataset.Instance {
		in := &dataset.Instance{Label: label}
		for i := 0; i < len(kv); i += 2 {
			in.Keys = append(in.Keys, uint64(kv[i]))
			in.Values = append(in.Values, kv[i+1])
		}
		return in
	}
	negZero := math.Copysign(0, -1)
	const dim = 16
	linear := Wrap(Linear{})

	t.Run("empty batch", func(t *testing.T) {
		for _, tr := range oracleTrainables() {
			for _, lambda := range []float64{0, 0.01} {
				theta := thetaFor(tr, dim, rand.New(rand.NewSource(1)))
				if g := requireMatchesMap(t, tr, theta, nil, lambda); g.NNZ() != 0 {
					t.Errorf("%s: %d entries from no instances", tr.Name(), g.NNZ())
				}
			}
		}
	})

	t.Run("every scalar zero", func(t *testing.T) {
		// Every instance is outside the hinge's margin, so none emits a
		// term and the regularizer has no key to act on.
		theta := make([]float64, dim)
		theta[2], theta[5] = 3, -3
		batch := []*dataset.Instance{inst(1, 2, 1), inst(-1, 5, 1), inst(1, 2, 2, 5, -1)}
		for _, lambda := range []float64{0, 0.01} {
			if g := requireMatchesMap(t, Wrap(SVM{}), theta, batch, lambda); g.NNZ() != 0 {
				t.Errorf("λ=%v: %d entries though every ScalarGrad is 0", lambda, g.NNZ())
			}
		}
	})

	t.Run("last key and one shared key", func(t *testing.T) {
		for _, tr := range oracleTrainables() {
			rng := rand.New(rand.NewSource(2))
			theta := thetaFor(tr, dim, rng)
			var batch []*dataset.Instance
			for i := 0; i < 300; i++ {
				label := 1.0
				if i%3 == 0 {
					label = -1
				}
				batch = append(batch, inst(label, 7, rng.NormFloat64(), dim-1, rng.NormFloat64()))
			}
			for _, lambda := range []float64{0, 0.01} {
				g := requireMatchesMap(t, tr, theta, batch, lambda)
				if g.Get(7) == 0 || g.Get(dim-1) == 0 {
					t.Errorf("%s λ=%v: keys 7 and %d should both carry a sum, got %v", tr.Name(), lambda, dim-1, g.Keys)
				}
			}
		}
	})

	t.Run("cancellation dropped, rescued by the regularizer", func(t *testing.T) {
		// Squared loss at margin θ₃·1 = 0.5: labels 1.5 and −0.5 give scalars
		// −2/2 and +2/2, so key 3's two terms cancel exactly.
		theta := make([]float64, dim)
		theta[3] = 0.5
		batch := []*dataset.Instance{inst(1.5, 3, 1), inst(-0.5, 3, 1)}
		g := requireMatchesMap(t, linear, theta, batch, 0)
		if g.NNZ() != 0 {
			t.Errorf("λ=0: terms cancel to zero yet %v survive", g.Keys)
		}
		lambda := 0.01
		g = requireMatchesMap(t, linear, theta, batch, lambda)
		if g.NNZ() != 1 || g.Keys[0] != 3 || g.Values[0] != lambda*theta[3] {
			t.Errorf("λ=0.01: want key 3 alone at λ·θ₃, got %v %v", g.Keys, g.Values)
		}
	})

	t.Run("negative zero terms", func(t *testing.T) {
		// Key 1's only terms are −0.0 (a negative scalar times a zero
		// feature, a positive one times −0): summed from +0.0 they give
		// +0.0, which is dropped unless λ·θ₁ rescues it.
		theta := make([]float64, dim)
		theta[1], theta[2] = 0.25, 1
		batch := []*dataset.Instance{inst(5, 1, 0, 2, 1), inst(-5, 1, negZero, 2, 1)}
		g := requireMatchesMap(t, linear, theta, batch, 0)
		if g.Get(1) != 0 {
			t.Errorf("λ=0: key 1 kept with value %v", g.Get(1))
		}
		lambda := 0.01
		g = requireMatchesMap(t, linear, theta, batch, lambda)
		if got := g.Get(1); got != lambda*theta[1] {
			t.Errorf("λ=0.01: key 1 = %v, want λ·θ₁", got)
		}
	})

	t.Run("one instance", func(t *testing.T) {
		for _, tr := range oracleTrainables() {
			theta := thetaFor(tr, dim, rand.New(rand.NewSource(3)))
			for _, lambda := range []float64{0, 0.01} {
				requireMatchesMap(t, tr, theta, []*dataset.Instance{inst(-1, 0, 1, 9, -2, dim-1, 0.5)}, lambda)
			}
		}
	})
}

// TestBatchGradientConcurrent runs W calls at once on one shared Trainable
// over one shared theta — the trainer's workers do exactly this — and
// demands that each gets the gradient a call alone gets. Under -race it is
// the witness that no pooled scratch is shared between concurrent calls.
func TestBatchGradientConcurrent(t *testing.T) {
	const workers, rounds, dim = 8, 20, 5000
	tr := Wrap(LogisticRegression{})
	rng := rand.New(rand.NewSource(4))
	theta := thetaFor(tr, dim, rng)
	batches := make([][]*dataset.Instance, workers)
	want := make([]*gradient.Sparse, workers)
	for w := range batches {
		batches[w] = zipfBatch(rng, dim, 20+30*w, 15, false)
		want[w], _ = tr.BatchGradient(theta, batches[w], 0.01)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, _ := tr.BatchGradient(theta, batches[w], 0.01)
				if len(got.Keys) != len(want[w].Keys) {
					t.Errorf("%s worker %d round %d: %d keys, alone %d", tr.Name(), w, r, len(got.Keys), len(want[w].Keys))
					return
				}
				for i, k := range want[w].Keys {
					if got.Keys[i] != k || math.Float64bits(got.Values[i]) != math.Float64bits(want[w].Values[i]) {
						t.Errorf("%s worker %d round %d: entry %d is (%d, %v), alone (%d, %v)",
							tr.Name(), w, r, i, got.Keys[i], got.Values[i], k, want[w].Values[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// fuzzValues is what a fuzzed feature value or weight can be: both zeros,
// values that cancel, and magnitudes far enough apart that the order of a
// sum shows in its last bits.
var fuzzValues = [...]float64{0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 1e-3, -3.75, 1e15, -1e15, 1.0 / 3, 1e-300}

// fuzzBatch reads a small training problem out of data: the model, the
// regularizer, a feature dimension of at most 64, a parameter vector and
// instances with ascending keys. Any byte string is a valid problem.
func fuzzBatch(data []byte) (Trainable, []float64, []*dataset.Instance, float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	trainables := oracleTrainables()
	tr := trainables[int(next())%len(trainables)]
	lambda := []float64{0, 0.01, -0.5}[int(next())%3]
	dim := uint64(next())%64 + 1
	theta := make([]float64, tr.ParamDim(dim))
	for i := range theta {
		theta[i] = fuzzValues[int(next())%len(fuzzValues)]
	}
	var batch []*dataset.Instance
	for len(data) > 0 && len(batch) < 64 {
		in := &dataset.Instance{Label: []float64{1, -1, 0.5, 3}[int(next())%4]}
		key := uint64(next()) % dim
		for nnz := int(next()) % 8; nnz > 0 && key < dim; nnz-- {
			in.Keys = append(in.Keys, key)
			in.Values = append(in.Values, fuzzValues[int(next())%len(fuzzValues)])
			key += uint64(next())%8 + 1
		}
		batch = append(batch, in)
	}
	return tr, theta, batch, lambda
}

// FuzzBatchGradientMatchesMap is differential against the map oracle: on
// any batch the sorted path must give the same keys, the same value bits
// and the same loss.
// Run with: go test -fuzz FuzzBatchGradientMatchesMap ./internal/model
func FuzzBatchGradientMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 15})
	rng := rand.New(rand.NewSource(5))
	for model := byte(0); model < 5; model++ {
		for _, n := range []int{40, 400} {
			seed := make([]byte, n)
			rng.Read(seed)
			seed[0], seed[1], seed[2] = model, model, 7+model*11
			f.Add(seed)
		}
	}
	// One key, many instances, values that cancel: Linear, λ=0.01, dim 1.
	cancel := []byte{2, 1, 0, 2}
	for i := 0; i < 20; i++ {
		cancel = append(cancel, byte(i), 0, 1, byte(2+i%2), 0)
	}
	f.Add(cancel)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, theta, batch, lambda := fuzzBatch(data)
		requireMatchesMap(t, tr, theta, batch, lambda)
	})
}

// benchShape is a worker's parameters and batch over the end-to-end
// benchmark's 2M dimensions: n instances of nnz Zipf features (the
// benchmark's batch is 2,700 of 40), and the batch's feature nonzeros.
func benchShape(n, nnz int) (theta []float64, batch []*dataset.Instance, batchNNZ int) {
	const dim = 2_000_000
	rng := rand.New(rand.NewSource(1))
	theta = thetaFor(Wrap(LogisticRegression{}), dim, rng)
	batch = zipfBatch(rng, dim, n, nnz, false)
	for _, in := range batch {
		batchNNZ += in.NNZ()
	}
	return theta, batch, batchNNZ
}

// TestBatchGradientAllocsWarm is the allocation contract of the worker's
// compute step: at the benchmark's shape a warm BatchGradient allocates the
// gradient it returns — the struct, its keys, its values — and nothing
// else; the terms live in pooled scratch. Skipped under -race, where the
// pool drops that scratch at random.
func TestBatchGradientAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	theta, batch, _ := benchShape(2700, 40)
	allocs := testing.AllocsPerRun(10, func() {
		BatchGradient(LogisticRegression{}, theta, batch, 0.01)
	})
	if allocs > 3 {
		t.Errorf("warm BatchGradient allocates %v objects/op, want at most 3", allocs)
	}
}

// TestBatchGradientIntoZeroAllocWarm is the allocation contract of the
// worker's steady-state compute step: at the benchmark's shape, into the
// gradient the previous round filled, a warm BatchGradientInto allocates
// nothing. Skipped under -race, where the pool drops the term scratch at
// random.
func TestBatchGradientIntoZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	theta, batch, _ := benchShape(2700, 40)
	var g gradient.Sparse
	allocs := testing.AllocsPerRun(10, func() {
		BatchGradientInto(&g, LogisticRegression{}, theta, batch, 0.01)
	})
	if allocs != 0 {
		t.Errorf("warm BatchGradientInto allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkBatchGradient is one worker's gradient at the end-to-end
// benchmark's shape beside a small batch, into the gradient the previous
// call filled, as a worker computes it. ns/nnz is per feature nonzero of
// the batch, the unit of the benchmark's model.batch_gradient_ns_per_nnz.
func BenchmarkBatchGradient(b *testing.B) {
	for _, c := range []struct{ n, nnz int }{{2700, 40}, {200, 20}} {
		b.Run(fmt.Sprintf("LR_n%d_nnz%d_d2e6", c.n, c.nnz), func(b *testing.B) {
			theta, batch, batchNNZ := benchShape(c.n, c.nnz)
			var g gradient.Sparse
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BatchGradientInto(&g, LogisticRegression{}, theta, batch, 0.01)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(batchNNZ), "ns/nnz")
		})
	}
}
