package nn

import (
	"math"
	"slices"
	"testing"

	"sketchml/internal/cluster"
	"sketchml/internal/dataset"
	"sketchml/internal/optim"
	"sketchml/internal/trainer"
)

func tinyBatch() []*dataset.Instance {
	return []*dataset.Instance{
		{Keys: []uint64{0, 1, 2}, Values: []float64{1, -0.5, 0.25}, Label: 0},
		{Keys: []uint64{0, 1, 2}, Values: []float64{-1, 0.5, 2}, Label: 2},
		{Keys: []uint64{0, 2}, Values: []float64{0.3, -1.2}, Label: 1},
	}
}

func initTheta(m *MLP) []float64 {
	theta := make([]float64, m.ParamDim(0))
	m.InitTheta(theta)
	return theta
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{5}, 1); err == nil {
		t.Error("single layer accepted")
	}
	if _, err := New([]int{5, 0, 3}, 1); err == nil {
		t.Error("zero-width layer accepted")
	}
	m, err := New([]int{3, 4, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*4 + 4 + 4*2 + 2
	if int(m.ParamDim(3)) != want {
		t.Errorf("ParamDim = %d, want %d", m.ParamDim(3), want)
	}
	if m.Name() != "MLP-3-4-2" {
		t.Errorf("Name = %q", m.Name())
	}
}

// TestDeterministicInit pins InitTheta to the seed and, through the values
// nn.New([]int{3, 5, 2}, 42).Params() held before the parameters moved into
// the caller's theta, to the same He draw.
func TestDeterministicInit(t *testing.T) {
	m, _ := New([]int{3, 5, 2}, 42)
	a := initTheta(m)
	golden := map[int]float64{
		0: 1.2685340390045465, 1: 0.10227116663467019, 14: -0.5299335962106654,
		15: 0, 19: 0, // layer 0 biases
		20: 1.1312080994442024, 29: -0.4800061474449493,
		30: 0, 31: 0, // layer 1 biases
	}
	for i, want := range golden {
		if a[i] != want {
			t.Errorf("theta[%d] = %v, want %v", i, a[i], want)
		}
	}
	// A replica's vector is the caller's: whatever it held is overwritten.
	b := make([]float64, len(a))
	for i := range b {
		b[i] = 7
	}
	m.InitTheta(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different init at %d: %v vs %v", i, a[i], b[i])
		}
	}
	other, _ := New([]int{3, 5, 2}, 43)
	c := initTheta(other)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds, identical init")
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	m, err := New([]int{3, 4, 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	const lambda = 0.01
	batch := tinyBatch()
	theta := initTheta(m)
	// The objective BatchGradient differentiates: mean loss + (λ/2)‖θ‖².
	objective := func() float64 {
		_, loss := m.BatchGradient(theta, batch, lambda)
		for _, w := range theta {
			loss += lambda / 2 * w * w
		}
		return loss
	}
	g, loss0 := m.BatchGradient(theta, batch, lambda)
	if loss0 <= 0 {
		t.Fatalf("loss = %v", loss0)
	}
	if g.Dim != m.ParamDim(3) {
		t.Fatalf("gradient over %d dims, want %d", g.Dim, m.ParamDim(3))
	}
	grad := g.ToDense()
	const h = 1e-6
	// Every parameter: the net is small.
	for i := range theta {
		orig := theta[i]
		theta[i] = orig + h
		lp := objective()
		theta[i] = orig - h
		lm := objective()
		theta[i] = orig
		want := (lp - lm) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-4 {
			t.Fatalf("grad[%d] = %v, finite diff %v", i, grad[i], want)
		}
	}
}

func TestCheckDatasetRejectsBadLabelAndWidth(t *testing.T) {
	m, _ := New([]int{2, 3}, 1)
	one := func(dim uint64, key uint64, label float64) *dataset.Dataset {
		return &dataset.Dataset{Dim: dim, Instances: []dataset.Instance{
			{Keys: []uint64{key}, Values: []float64{1}, Label: label},
		}}
	}
	if err := m.CheckDataset(one(2, 1, 2)); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	for name, d := range map[string]*dataset.Dataset{
		"label == classes":   one(2, 0, 3),
		"label above":        one(2, 0, 9),
		"negative label":     one(2, 0, -1),
		"NaN label":          one(2, 0, math.NaN()),
		"Dim above width":    one(3, 0, 0),
		"Dim below width":    one(1, 0, 0),
		"key outside inputs": one(2, 2, 0),
	} {
		if err := m.CheckDataset(d); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	m, _ := New([]int{2, 3}, 1)
	g, loss := m.BatchGradient(initTheta(m), nil, 0)
	if loss != 0 || g.NNZ() != 0 {
		t.Fatalf("empty batch: loss=%v nnz=%d", loss, g.NNZ())
	}
}

func TestSoftmaxStability(t *testing.T) {
	p := softmax([]float64{1000, 1001, 999})
	var sum float64
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflow")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sums to %v", sum)
	}
	if p[1] < p[0] || p[1] < p[2] {
		t.Error("softmax ordering wrong")
	}
}

// TestTrainingReducesLossMNISTLike trains the MLP the way everything else
// trains: two workers through trainer.Run. The dense gradients must lower the
// test loss, leave star and tree gathers on the same trajectory (Raw merges
// exactly, so only the order of float additions may differ) and resume from
// the epoch-1 checkpoint onto the uninterrupted run's exact bits.
func TestTrainingReducesLossMNISTLike(t *testing.T) {
	train, test := dataset.MNISTLike(3, 500, 12).Split(0.8, 3) // 12x12 = 144-dim inputs, fast
	m, err := New([]int{144, 32, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{train, test} {
		if err := m.CheckDataset(d); err != nil {
			t.Fatal(err)
		}
	}
	theta0 := initTheta(m)
	loss0, _ := m.Evaluate(theta0, test)

	var atEpoch1 *trainer.Checkpoint
	config := func(topo cluster.Topology) trainer.Config {
		return trainer.Config{
			Trainable: m, Topology: topo, // nil CodecFactory: codec.Raw
			Optimizer: func(dim uint64) optim.Optimizer { return optim.NewAdam(0.01, dim) },
			Workers:   2, BatchFraction: 0.075, Epochs: 20, Seed: 9,
		}
	}
	// Replicas start from InitTheta, not from zero (the trainer's
	// paramsInitializer seam): at a step size of zero the checkpoint still
	// holds the draw bit for bit.
	still := config(cluster.TopologyStar)
	still.Epochs = 1
	still.Optimizer = func(uint64) optim.Optimizer { return optim.NewSGD(0) }
	var unmoved []float64
	// The hook borrows the checkpoint: what outlives it is copied.
	still.OnCheckpoint = func(cp *trainer.Checkpoint) error { unmoved = slices.Clone(cp.Theta); return nil }
	if _, err := trainer.Run(still, train, test); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(unmoved, theta0) {
		t.Error("a run that takes no step does not end on InitTheta's parameters")
	}

	cfg := config(cluster.TopologyStar)
	var last *trainer.Checkpoint
	cfg.OnCheckpoint = func(cp *trainer.Checkpoint) (err error) {
		if cp.Rounds == cp.RoundsPerEpoch {
			atEpoch1, err = trainer.UnmarshalCheckpoint(cp.Marshal())
		}
		last = cp // the final checkpoint: nothing runs after it
		return err
	}
	star, err := trainer.Run(cfg, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if star.FinalLoss >= loss0*0.5 {
		t.Errorf("test loss %v -> %v; expected at least 2x reduction", loss0, star.FinalLoss)
	}
	if star.FinalAccuracy < 0.6 {
		t.Errorf("test accuracy %.2f after training, want > 0.6", star.FinalAccuracy)
	}

	tree, err := trainer.Run(config(cluster.TopologyTree), train, test)
	if err != nil {
		t.Fatal(err)
	}
	for i := range star.Epochs {
		if d := math.Abs(tree.Epochs[i].TestLoss - star.Epochs[i].TestLoss); d > 1e-9 {
			t.Errorf("epoch %d: tree loss %v diverges from star %v by %v (> 1e-9)",
				i, tree.Epochs[i].TestLoss, star.Epochs[i].TestLoss, d)
		}
	}

	if atEpoch1 == nil {
		t.Fatal("no checkpoint at the first epoch boundary")
	}
	cfg = config(cluster.TopologyStar)
	cfg.Resume = atEpoch1
	var resumedLast *trainer.Checkpoint
	cfg.OnCheckpoint = func(cp *trainer.Checkpoint) error { resumedLast = cp; return nil }
	resumed, err := trainer.Run(cfg, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.FinalLoss != star.FinalLoss {
		t.Errorf("resumed final loss %v, uninterrupted %v", resumed.FinalLoss, star.FinalLoss)
	}
	for i := range last.Theta {
		if resumedLast.Theta[i] != last.Theta[i] {
			t.Fatalf("theta[%d] after resume %v, uninterrupted %v", i, resumedLast.Theta[i], last.Theta[i])
		}
	}
}

func BenchmarkBatchGradient(b *testing.B) {
	d := dataset.MNISTLike(1, 64, 20)
	m, _ := New([]int{400, 100, 10}, 1)
	theta := initTheta(m)
	batch := make([]*dataset.Instance, 32)
	for i := range batch {
		batch[i] = &d.Instances[i]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.BatchGradient(theta, batch, 0)
	}
}
