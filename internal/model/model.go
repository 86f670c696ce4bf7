// Package model implements the three generalized linear models the paper
// evaluates (Section 4.1): ℓ2-regularized Logistic Regression, Support
// Vector Machine (hinge loss), and Linear Regression (squared loss). Each
// model exposes per-instance loss and the scalar dLoss/d(θᵀx) from which
// sparse mini-batch gradients are assembled.
package model

import (
	"fmt"
	"math"

	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
)

// Model is a generalized linear model trained by mini-batch SGD.
type Model interface {
	// Name identifies the model in experiment output ("LR", "SVM", "Linear").
	Name() string
	// InstanceLoss returns the unregularized loss of prediction margin
	// m = θᵀx against label y.
	InstanceLoss(margin, label float64) float64
	// ScalarGrad returns dLoss/dm at margin m and label y; the instance's
	// gradient contribution is ScalarGrad * x.
	ScalarGrad(margin, label float64) float64
	// Predict converts a margin into a prediction (class sign or value).
	Predict(margin float64) float64
}

// LogisticRegression is binary LR with ±1 labels:
// loss = log(1 + exp(-y·m)).
type LogisticRegression struct{}

// Name implements Model.
func (LogisticRegression) Name() string { return "LR" }

// InstanceLoss implements Model.
func (LogisticRegression) InstanceLoss(margin, label float64) float64 {
	// Numerically stable log(1+exp(-ym)).
	z := -label * margin
	if z > 30 {
		return z
	}
	return math.Log1p(math.Exp(z))
}

// ScalarGrad implements Model.
func (LogisticRegression) ScalarGrad(margin, label float64) float64 {
	// d/dm log(1+exp(-ym)) = -y * sigmoid(-ym)
	z := -label * margin
	var s float64
	if z >= 0 {
		e := math.Exp(-z)
		s = 1 / (1 + e)
	} else {
		e := math.Exp(z)
		s = e / (1 + e)
	}
	return -label * s
}

// Predict implements Model.
func (LogisticRegression) Predict(margin float64) float64 {
	if margin >= 0 {
		return 1
	}
	return -1
}

// SVM is a linear SVM with hinge loss: loss = max(0, 1 - y·m).
type SVM struct{}

// Name implements Model.
func (SVM) Name() string { return "SVM" }

// InstanceLoss implements Model.
func (SVM) InstanceLoss(margin, label float64) float64 {
	return math.Max(0, 1-label*margin)
}

// ScalarGrad implements Model.
func (SVM) ScalarGrad(margin, label float64) float64 {
	if label*margin < 1 {
		return -label
	}
	return 0
}

// Predict implements Model.
func (SVM) Predict(margin float64) float64 {
	if margin >= 0 {
		return 1
	}
	return -1
}

// Linear is least-squares regression: loss = (y - m)².
type Linear struct{}

// Name implements Model.
func (Linear) Name() string { return "Linear" }

// InstanceLoss implements Model.
func (Linear) InstanceLoss(margin, label float64) float64 {
	d := label - margin
	return d * d
}

// ScalarGrad implements Model.
func (Linear) ScalarGrad(margin, label float64) float64 {
	return 2 * (margin - label)
}

// Predict implements Model.
func (Linear) Predict(margin float64) float64 { return margin }

// ByName returns one of "LR", "SVM", "Linear", wrapped for the trainer.
func ByName(name string) (Trainable, error) {
	switch name {
	case "LR", "lr":
		return Wrap(LogisticRegression{}), nil
	case "SVM", "svm":
		return Wrap(SVM{}), nil
	case "Linear", "linear":
		return Wrap(Linear{}), nil
	}
	return nil, fmt.Errorf("model: unknown model %q", name)
}

// All returns the three evaluated models in the paper's order.
func All() []Model {
	return []Model{LogisticRegression{}, SVM{}, Linear{}}
}

// BatchGradient computes the mini-batch gradient of the ℓ2-regularized
// objective (1/|B|) Σ loss(θᵀx_i, y_i) + (λ/2)‖θ‖² restricted to the active
// dimensions of the batch (sparse regularization, standard for sparse SGD).
// It returns the sparse gradient and the mean unregularized batch loss: it
// is BatchGradientInto a fresh gradient.
func BatchGradient(m Model, theta []float64, batch []*dataset.Instance, lambda float64) (*gradient.Sparse, float64) {
	g := new(gradient.Sparse)
	loss := BatchGradientInto(g, m, theta, batch, lambda)
	return g, loss
}

// BatchGradientInto is BatchGradient refilling dst, whose storage is reused:
// a dst that has held a gradient of the batch's size takes the next one
// without allocating. It returns the mean unregularized batch loss.
func BatchGradientInto(dst *gradient.Sparse, m Model, theta []float64, batch []*dataset.Instance, lambda float64) float64 {
	terms := gradient.GetTerms()
	defer gradient.PutTerms(terms)
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
			terms.Add(k, s*in.Values[j])
		}
	}
	terms.SumInto(dst, uint64(len(theta)), theta, lambda)
	return lossSum * inv
}

// Evaluate returns the mean unregularized loss and (for classifiers) the
// accuracy of theta on the dataset. For Linear the accuracy is reported as
// 0 and should be ignored.
func Evaluate(m Model, theta []float64, d *dataset.Dataset) (loss, accuracy float64) {
	if d.N() == 0 {
		return 0, 0
	}
	var lossSum float64
	correct := 0
	_, isLinear := m.(Linear)
	for i := range d.Instances {
		in := &d.Instances[i]
		margin := in.Dot(theta)
		lossSum += m.InstanceLoss(margin, in.Label)
		if !isLinear {
			// Sign agreement, not float equality: Predict and Label are ±1.
			if m.Predict(margin)*in.Label > 0 {
				correct++
			}
		}
	}
	return lossSum / float64(d.N()), float64(correct) / float64(d.N())
}
