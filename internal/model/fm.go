package model

import (
	"fmt"
	"math/rand"

	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
)

// FM is a second-order factorization machine (Rendle), the model family of
// the paper's DiFacto baseline [30]. The prediction for an instance x is
//
//	ŷ(x) = Σ_j w_j x_j + ½ Σ_f [(Σ_j v_{jf} x_j)² − Σ_j v_{jf}² x_j²]
//
// with k latent factors per feature. Its gradients touch only the active
// features' weights and factor rows, so they are exactly the sparse
// key–value messages SketchML compresses — a natural test that the codec
// generalizes beyond linear models.
//
// Parameter layout in the flat vector: w_j at index j for j < D, then
// v_{jf} at index D + j·k + f. Labels are ±1 (logistic loss) or real
// values (squared loss) depending on Task.
type FM struct {
	// Factors is k, the latent dimensionality (default 4).
	Factors int
	// Regression selects squared loss over logistic loss.
	Regression bool
	// InitScale is the factor initialization std (default 0.01). The
	// trainer's zero-initialized parameter vector would make all factor
	// gradients zero, so InitTheta must be called on each replica's vector
	// before training; replicas must use the same Seed.
	InitScale float64
	// Seed drives the deterministic factor initialization.
	Seed int64
}

func (m FM) factors() int {
	if m.Factors < 1 {
		return 4
	}
	return m.Factors
}

func (m FM) initScale() float64 {
	if m.InitScale <= 0 {
		return 0.01
	}
	return m.InitScale
}

// Name implements Trainable.
func (m FM) Name() string { return fmt.Sprintf("FM-k%d", m.factors()) }

// ParamDim implements Trainable: D linear weights plus D·k factors.
func (m FM) ParamDim(featureDim uint64) uint64 {
	return featureDim + featureDim*uint64(m.factors())
}

// featureDim recovers D from a parameter vector length.
func (m FM) featureDim(paramDim int) uint64 {
	return uint64(paramDim / (1 + m.factors()))
}

// InitTheta fills the factor block of theta with small deterministic
// Gaussian noise (the symmetry-breaking FM initialization). Call once per
// replica with identical Seed; the trainer does this via InitParams.
func (m FM) InitTheta(theta []float64) {
	d := m.featureDim(len(theta))
	rng := rand.New(rand.NewSource(m.Seed + 7_777_777))
	scale := m.initScale()
	for i := d; i < uint64(len(theta)); i++ {
		theta[i] = rng.NormFloat64() * scale
	}
}

// predict returns ŷ(x) given the flat parameters.
func (m FM) predict(theta []float64, in *dataset.Instance, sumF []float64) float64 {
	k := m.factors()
	d := m.featureDim(len(theta))
	var y float64
	for i, key := range in.Keys {
		y += theta[key] * in.Values[i]
	}
	// Interaction term via the O(nnz·k) identity; sumF is scratch of len k.
	for f := 0; f < k; f++ {
		sumF[f] = 0
	}
	var sumSq float64
	for i, key := range in.Keys {
		x := in.Values[i]
		base := d + key*uint64(k)
		for f := 0; f < k; f++ {
			v := theta[base+uint64(f)] * x
			sumF[f] += v
			sumSq += v * v
		}
	}
	for f := 0; f < k; f++ {
		y += 0.5 * sumF[f] * sumF[f]
	}
	y -= 0.5 * sumSq
	return y
}

// lossAndScalar returns the instance loss and dLoss/dŷ.
func (m FM) lossAndScalar(y, label float64) (float64, float64) {
	if m.Regression {
		d := y - label
		return d * d, 2 * d
	}
	lr := LogisticRegression{}
	return lr.InstanceLoss(y, label), lr.ScalarGrad(y, label)
}

// BatchGradient implements Trainable.
func (m FM) BatchGradient(theta []float64, batch []*dataset.Instance, lambda float64) (*gradient.Sparse, float64) {
	k := m.factors()
	d := m.featureDim(len(theta))
	terms := gradient.GetTerms()
	defer gradient.PutTerms(terms)
	sumF := make([]float64, k)
	var lossSum float64
	inv := 1.0
	if len(batch) > 0 {
		inv = 1.0 / float64(len(batch))
	}
	for _, in := range batch {
		y := m.predict(theta, in, sumF)
		loss, s := m.lossAndScalar(y, in.Label)
		lossSum += loss
		if s == 0 {
			continue
		}
		s *= inv
		// dŷ/dw_j = x_j; dŷ/dv_jf = x_j·(sumF_f − v_jf·x_j).
		for i, key := range in.Keys {
			x := in.Values[i]
			terms.Add(key, s*x)
			base := d + key*uint64(k)
			for f := 0; f < k; f++ {
				pk := base + uint64(f)
				terms.Add(pk, s*x*(sumF[f]-theta[pk]*x))
			}
		}
	}
	return terms.Sum(uint64(len(theta)), theta, lambda), lossSum * inv
}

// Evaluate implements Trainable.
func (m FM) Evaluate(theta []float64, ds *dataset.Dataset) (float64, float64) {
	if ds.N() == 0 {
		return 0, 0
	}
	k := m.factors()
	sumF := make([]float64, k)
	var lossSum float64
	correct := 0
	for i := range ds.Instances {
		in := &ds.Instances[i]
		y := m.predict(theta, in, sumF)
		loss, _ := m.lossAndScalar(y, in.Label)
		lossSum += loss
		if !m.Regression {
			// Sign agreement, not float equality: labels are ±1.
			if (y >= 0) == (in.Label > 0) {
				correct++
			}
		}
	}
	acc := 0.0
	if !m.Regression {
		acc = float64(correct) / float64(ds.N())
	}
	return lossSum / float64(ds.N()), acc
}

// interface check
var _ Trainable = FM{}
