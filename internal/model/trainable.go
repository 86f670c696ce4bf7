package model

import (
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
)

// Trainable is the contract the distributed trainer needs: batch gradients
// over a flat parameter vector and test-set evaluation. Generalized linear
// models satisfy it through Wrap; richer models (nn.MLP) implement it
// directly.
type Trainable interface {
	// Name identifies the model in experiment output.
	Name() string
	// ParamDim returns the parameter-vector length for a feature space of
	// featureDim dimensions.
	ParamDim(featureDim uint64) uint64
	// BatchGradient returns the ℓ2-regularized mini-batch gradient and the
	// mean unregularized batch loss.
	BatchGradient(theta []float64, batch []*dataset.Instance, lambda float64) (*gradient.Sparse, float64)
	// Evaluate returns mean unregularized loss and accuracy (0 when
	// accuracy is not meaningful).
	Evaluate(theta []float64, d *dataset.Dataset) (loss, accuracy float64)
}

// GradientInto is implemented by trainables whose batch gradient can refill
// a caller-owned gradient, so a worker keeps one gradient for the whole job
// instead of receiving a fresh one every round. BatchGradientInto carries
// BatchGradient's contract and returns the mean unregularized batch loss;
// dst is valid until the next call that fills it.
type GradientInto interface {
	BatchGradientInto(dst *gradient.Sparse, theta []float64, batch []*dataset.Instance, lambda float64) float64
}

// BatchGradientReuse computes tr's batch gradient into dst when tr
// implements GradientInto and falls back to a fresh BatchGradient
// otherwise. It returns the gradient holding the result — dst on the reuse
// path, a newly allocated gradient on the fallback — and the loss, so
// callers treat both shapes alike.
func BatchGradientReuse(tr Trainable, dst *gradient.Sparse, theta []float64, batch []*dataset.Instance, lambda float64) (*gradient.Sparse, float64) {
	if gi, ok := tr.(GradientInto); ok {
		return dst, gi.BatchGradientInto(dst, theta, batch, lambda)
	}
	return tr.BatchGradient(theta, batch, lambda)
}

// glmAdapter lifts a margin-based Model into a Trainable.
type glmAdapter struct {
	m Model
}

// Wrap adapts a generalized linear Model to the Trainable interface.
func Wrap(m Model) Trainable { return glmAdapter{m: m} }

// Name implements Trainable.
func (a glmAdapter) Name() string { return a.m.Name() }

// ParamDim implements Trainable: GLMs have one weight per feature.
func (a glmAdapter) ParamDim(featureDim uint64) uint64 { return featureDim }

// BatchGradient implements Trainable.
func (a glmAdapter) BatchGradient(theta []float64, batch []*dataset.Instance, lambda float64) (*gradient.Sparse, float64) {
	return BatchGradient(a.m, theta, batch, lambda)
}

// BatchGradientInto implements GradientInto.
func (a glmAdapter) BatchGradientInto(dst *gradient.Sparse, theta []float64, batch []*dataset.Instance, lambda float64) float64 {
	return BatchGradientInto(dst, a.m, theta, batch, lambda)
}

// Evaluate implements Trainable.
func (a glmAdapter) Evaluate(theta []float64, d *dataset.Dataset) (float64, float64) {
	return Evaluate(a.m, theta, d)
}
