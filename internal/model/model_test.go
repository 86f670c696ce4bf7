package model

import (
	"math"
	"math/rand"
	"testing"

	"sketchml/internal/dataset"
	"sketchml/internal/optim"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"LR", "SVM", "Linear", "lr", "svm", "linear"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("resnet"); err == nil {
		t.Error("unknown model accepted")
	}
	if len(All()) != 3 {
		t.Error("All() should return 3 models")
	}
}

// numericalScalarGrad checks ScalarGrad against finite differences of
// InstanceLoss.
func TestScalarGradMatchesFiniteDifference(t *testing.T) {
	const h = 1e-6
	rng := rand.New(rand.NewSource(1))
	for _, m := range All() {
		for trial := 0; trial < 200; trial++ {
			margin := rng.NormFloat64() * 2
			label := 1.0
			if _, ok := m.(Linear); ok {
				label = rng.NormFloat64()
			} else if rng.Intn(2) == 0 {
				label = -1
			}
			// Hinge is non-differentiable at y*m == 1; step away from it.
			if _, ok := m.(SVM); ok && math.Abs(label*margin-1) < 1e-3 {
				continue
			}
			want := (m.InstanceLoss(margin+h, label) - m.InstanceLoss(margin-h, label)) / (2 * h)
			got := m.ScalarGrad(margin, label)
			if math.Abs(got-want) > 1e-4 {
				t.Fatalf("%s: ScalarGrad(%v,%v) = %v, finite diff %v",
					m.Name(), margin, label, got, want)
			}
		}
	}
}

func TestLogisticLossStability(t *testing.T) {
	lr := LogisticRegression{}
	// Extreme margins must not overflow.
	if v := lr.InstanceLoss(1000, -1); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Errorf("loss at extreme margin = %v", v)
	}
	if v := lr.InstanceLoss(-1000, -1); v != math.Log1p(math.Exp(-1000)) && v > 1e-6 {
		// Correct answer is ~0.
		t.Errorf("loss for confidently-correct = %v, want ~0", v)
	}
	if g := lr.ScalarGrad(1000, 1); math.Abs(g) > 1e-6 {
		t.Errorf("grad for confidently-correct = %v, want ~0", g)
	}
	if g := lr.ScalarGrad(-1000, 1); math.Abs(g+1) > 1e-6 {
		t.Errorf("grad for confidently-wrong = %v, want ~-1", g)
	}
}

func TestSVMHinge(t *testing.T) {
	m := SVM{}
	if m.InstanceLoss(2, 1) != 0 {
		t.Error("satisfied margin should have zero loss")
	}
	if m.ScalarGrad(2, 1) != 0 {
		t.Error("satisfied margin should have zero grad")
	}
	if m.InstanceLoss(0, 1) != 1 {
		t.Error("loss at margin 0 should be 1")
	}
	if m.ScalarGrad(0, 1) != -1 {
		t.Error("grad inside margin should be -label")
	}
}

func TestLinearLoss(t *testing.T) {
	m := Linear{}
	if m.InstanceLoss(3, 5) != 4 {
		t.Error("squared loss wrong")
	}
	if m.ScalarGrad(3, 5) != -4 {
		t.Error("squared grad wrong")
	}
	if m.Predict(1.5) != 1.5 {
		t.Error("linear predict should be identity")
	}
}

func TestBatchGradientNumerically(t *testing.T) {
	// Full-objective finite-difference check of BatchGradient, including
	// the lambda term, on a small dense problem.
	rng := rand.New(rand.NewSource(2))
	const dim = 12
	d, err := dataset.Generate(dataset.SyntheticConfig{
		N: 8, Dim: dim, AvgNNZ: 6, Task: dataset.Classification, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]*dataset.Instance, d.N())
	for i := range d.Instances {
		batch[i] = &d.Instances[i]
	}
	theta := make([]float64, dim)
	for i := range theta {
		theta[i] = rng.NormFloat64() * 0.5
	}
	const lambda = 0.01
	for _, m := range All() {
		g, _ := BatchGradient(m, theta, batch, lambda)
		obj := func(th []float64) float64 {
			var s float64
			for _, in := range batch {
				s += m.InstanceLoss(in.Dot(th), in.Label)
			}
			s /= float64(len(batch))
			// Sparse regularization: only active dims carry lambda.
			for _, k := range g.Keys {
				s += lambda / 2 * th[k] * th[k]
			}
			return s
		}
		const h = 1e-6
		for _, k := range g.Keys {
			thp := append([]float64(nil), theta...)
			thm := append([]float64(nil), theta...)
			thp[k] += h
			thm[k] -= h
			want := (obj(thp) - obj(thm)) / (2 * h)
			got := g.Get(k)
			if math.Abs(got-want) > 1e-4 {
				t.Errorf("%s: grad[%d] = %v, finite diff %v", m.Name(), k, got, want)
			}
		}
	}
}

func TestBatchGradientSparsity(t *testing.T) {
	// The gradient support must be the union of batch instance supports.
	d, _ := dataset.Generate(dataset.SyntheticConfig{
		N: 5, Dim: 1000, AvgNNZ: 4, Task: dataset.Classification, Seed: 4,
	})
	batch := []*dataset.Instance{&d.Instances[0], &d.Instances[1]}
	theta := make([]float64, 1000)
	g, _ := BatchGradient(LogisticRegression{}, theta, batch, 0.01)
	active := map[uint64]bool{}
	for _, in := range batch {
		for _, k := range in.Keys {
			active[k] = true
		}
	}
	for _, k := range g.Keys {
		if !active[k] {
			t.Fatalf("gradient touches inactive dim %d", k)
		}
	}
	if g.NNZ() == 0 {
		t.Fatal("empty gradient for untrained model")
	}
}

func TestBatchGradientEmptyBatch(t *testing.T) {
	theta := make([]float64, 10)
	g, loss := BatchGradient(SVM{}, theta, nil, 0.1)
	if g.NNZ() != 0 || loss != 0 {
		t.Errorf("empty batch: nnz=%d loss=%v", g.NNZ(), loss)
	}
}

func TestEvaluate(t *testing.T) {
	d := &dataset.Dataset{Dim: 2, Instances: []dataset.Instance{
		{Keys: []uint64{0}, Values: []float64{1}, Label: 1},
		{Keys: []uint64{0}, Values: []float64{-1}, Label: -1},
		{Keys: []uint64{1}, Values: []float64{1}, Label: -1},
	}}
	theta := []float64{2, 0} // classifies first two right, third wrong (ties to +1)
	_, acc := Evaluate(LogisticRegression{}, theta, d)
	if math.Abs(acc-2.0/3) > 1e-12 {
		t.Errorf("accuracy = %v, want 2/3", acc)
	}
	loss, _ := Evaluate(LogisticRegression{}, theta, d)
	if loss <= 0 {
		t.Errorf("loss = %v, want > 0", loss)
	}
	if l, a := Evaluate(SVM{}, theta, &dataset.Dataset{Dim: 2}); l != 0 || a != 0 {
		t.Error("empty dataset should evaluate to zeros")
	}
}

// End-to-end sanity: Adam on each model reduces training loss markedly on a
// learnable synthetic problem.
func TestTrainingConvergesAllModels(t *testing.T) {
	for _, m := range All() {
		task := dataset.Classification
		if _, ok := m.(Linear); ok {
			task = dataset.Regression
		}
		d, err := dataset.Generate(dataset.SyntheticConfig{
			N: 400, Dim: 200, AvgNNZ: 10, Task: task, NoiseStd: 0.1, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		theta := make([]float64, d.Dim)
		opt := optim.NewAdam(0.05, d.Dim)
		batcher := dataset.NewBatcher(d, 40, 6)
		loss0, _ := Evaluate(m, theta, d)
		var buf []*dataset.Instance
		for iter := 0; iter < 300; iter++ {
			buf = batcher.Next(buf)
			g, _ := BatchGradient(m, theta, buf, 0.001)
			if err := opt.Step(theta, g); err != nil {
				t.Fatal(err)
			}
		}
		loss1, _ := Evaluate(m, theta, d)
		if loss1 >= loss0*0.7 {
			t.Errorf("%s: loss %v -> %v, expected marked decrease", m.Name(), loss0, loss1)
		}
	}
}

func TestWrapAdapter(t *testing.T) {
	tr := Wrap(SVM{})
	if tr.Name() != "SVM" {
		t.Errorf("Name = %q", tr.Name())
	}
	if tr.ParamDim(42) != 42 {
		t.Errorf("ParamDim = %d", tr.ParamDim(42))
	}
	d := &dataset.Dataset{Dim: 3, Instances: []dataset.Instance{
		{Keys: []uint64{0}, Values: []float64{1}, Label: 1},
	}}
	theta := make([]float64, 3)
	g, loss := tr.BatchGradient(theta, []*dataset.Instance{&d.Instances[0]}, 0)
	if g.NNZ() == 0 || loss <= 0 {
		t.Error("adapter gradient wrong")
	}
	if l, _ := tr.Evaluate(theta, d); l <= 0 {
		t.Errorf("adapter Evaluate = %v", l)
	}
}
