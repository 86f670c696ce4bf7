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

// Evaluate implements Trainable.
func (a glmAdapter) Evaluate(theta []float64, d *dataset.Dataset) (float64, float64) {
	return Evaluate(a.m, theta, d)
}
