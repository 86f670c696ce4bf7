// Package dataset provides the training-data substrate for the SketchML
// reproduction: sparse labeled instances, LibSVM-format I/O, deterministic
// train/test splitting and mini-batching, and synthetic generators that
// stand in for the paper's proprietary/large datasets (KDD10, KDD12, CTR,
// MNIST) while preserving the properties SketchML's gains depend on —
// high dimension, power-law feature sparsity, and skewed gradients.
package dataset

import "math/rand"

// Instance is one training example: sparse features plus a label.
// For binary classification the label is ±1; for regression it is the
// target value; for multi-class it is the class index.
type Instance struct {
	Keys   []uint64  // feature indexes, strictly ascending
	Values []float64 // feature values, parallel to Keys
	Label  float64
}

// NNZ returns the number of active features.
func (in *Instance) NNZ() int { return len(in.Keys) }

// Dot returns the inner product of the instance with a dense weight vector.
func (in *Instance) Dot(theta []float64) float64 {
	var s float64
	for i, k := range in.Keys {
		s += theta[k] * in.Values[i]
	}
	return s
}

// Dataset is a collection of instances over a fixed feature space.
type Dataset struct {
	Dim       uint64
	Instances []Instance
}

// N returns the number of instances.
func (d *Dataset) N() int { return len(d.Instances) }

// AvgNNZ returns the mean number of active features per instance.
func (d *Dataset) AvgNNZ() float64 {
	if len(d.Instances) == 0 {
		return 0
	}
	total := 0
	for i := range d.Instances {
		total += d.Instances[i].NNZ()
	}
	return float64(total) / float64(len(d.Instances))
}

// Split partitions the dataset into train and test subsets with the given
// train fraction, shuffling deterministically by seed. The paper uses
// 75/25 (Section 4.1).
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(d.Instances))
	cut := int(trainFrac * float64(len(d.Instances)))
	train = &Dataset{Dim: d.Dim, Instances: make([]Instance, 0, cut)}
	test = &Dataset{Dim: d.Dim, Instances: make([]Instance, 0, len(d.Instances)-cut)}
	for i, j := range idx {
		if i < cut {
			train.Instances = append(train.Instances, d.Instances[j])
		} else {
			test.Instances = append(test.Instances, d.Instances[j])
		}
	}
	return train, test
}

// Shard partitions instances round-robin across w workers (the paper's
// data-parallel layout over executors).
func (d *Dataset) Shard(w int) []*Dataset {
	if w < 1 {
		w = 1
	}
	shards := make([]*Dataset, w)
	for i := range shards {
		// Shard i holds instances i, i+w, i+2w, …: ⌈(N−i)/w⌉ of them.
		shards[i] = &Dataset{Dim: d.Dim, Instances: make([]Instance, 0, (len(d.Instances)-i+w-1)/w)}
	}
	for i := range d.Instances {
		s := shards[i%w]
		s.Instances = append(s.Instances, d.Instances[i])
	}
	return shards
}

// Batcher yields deterministic mini-batches: each epoch reshuffles the
// instance order with a per-epoch seed derived from the base seed. The
// order is rand.New(rand.NewSource(seed)).Perm(N) for that epoch's seed,
// drawn into the same slice by the same generator, re-seeded, every epoch.
type Batcher struct {
	data      *Dataset
	batchSize int
	seed      int64
	epoch     int
	rng       *rand.Rand
	order     []int
	pos       int
}

// NewBatcher creates a Batcher with the given batch size (clamped to
// [1, N]).
func NewBatcher(d *Dataset, batchSize int, seed int64) *Batcher {
	if batchSize < 1 {
		batchSize = 1
	}
	if batchSize > d.N() && d.N() > 0 {
		batchSize = d.N()
	}
	b := &Batcher{data: d, batchSize: batchSize, seed: seed,
		rng: rand.New(rand.NewSource(seed)), order: make([]int, d.N())}
	b.reshuffle()
	return b
}

// reshuffle re-seeds the generator with the epoch's seed and refills the
// order with rand.Perm's own loop, which draws the same permutation.
func (b *Batcher) reshuffle() {
	b.rng.Seed(b.seed + int64(b.epoch)*1_000_003)
	m := b.order
	for i := range m {
		j := b.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	b.pos = 0
}

// Next returns the next mini-batch as a slice of instance pointers. When a
// pass over the data completes, it advances the epoch counter and
// reshuffles. The returned slice is reused across calls.
func (b *Batcher) Next(buf []*Instance) []*Instance {
	buf = buf[:0]
	if b.data.N() == 0 {
		return buf
	}
	for len(buf) < b.batchSize {
		if b.pos >= len(b.order) {
			b.epoch++
			b.reshuffle()
			if len(buf) > 0 {
				break // don't mix epochs within one batch
			}
		}
		buf = append(buf, &b.data.Instances[b.order[b.pos]])
		b.pos++
	}
	return buf
}
