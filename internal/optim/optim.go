// Package optim implements the optimizers used in the paper's evaluation:
// plain SGD and Adam (Kingma & Ba), the adaptive method SketchML relies on
// to compensate MinMaxSketch's gradient decay (Section 3.3, Solution 2:
// "Adaptive Learning Rate"). Both apply sparse updates — only the
// dimensions present in the gradient are touched.
package optim

import (
	"fmt"
	"math"

	"sketchml/internal/gradient"
)

// Optimizer applies sparse gradients to a dense parameter vector.
type Optimizer interface {
	// Name identifies the optimizer ("SGD", "Adam").
	Name() string
	// Step applies one update with gradient g.
	Step(theta []float64, g *gradient.Sparse) error
	// Reset clears the optimizer's state (moments, step counter).
	Reset()
}

// SGD is plain stochastic gradient descent: θ ← θ − η·g.
type SGD struct {
	// LR is the learning rate η.
	LR float64
}

// NewSGD returns an SGD optimizer with learning rate lr.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Name implements Optimizer.
func (s *SGD) Name() string { return "SGD" }

// Step implements Optimizer.
func (s *SGD) Step(theta []float64, g *gradient.Sparse) error {
	if g.Dim != uint64(len(theta)) {
		return fmt.Errorf("optim: gradient dim %d, model dim %d", g.Dim, len(theta))
	}
	for i, k := range g.Keys {
		theta[k] -= s.LR * g.Values[i]
	}
	return nil
}

// Reset implements Optimizer.
func (s *SGD) Reset() {}

// Adam is the adaptive optimizer of Kingma & Ba with the paper's defaults
// β1=0.9, β2=0.999, ε=1e-8 (Section 4.1). Moments are kept densely but
// updated lazily: a dimension's moments decay only when it receives a
// gradient, the standard sparse-Adam treatment.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	// mv[k] is dimension k's first and second moment, side by side: a step
	// over a sparse gradient lands on random k, and the pair shares a cache
	// line where two Dim-long slices would cost a miss each.
	mv [][2]float64
	t  int
	// state is MarshalState's output buffer, reused across calls.
	state []byte
}

// NewAdam returns an Adam optimizer over dim parameters with the paper's
// hyper-parameters.
func NewAdam(lr float64, dim uint64) *Adam {
	return &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		mv:      make([][2]float64, dim),
	}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "Adam" }

// Step implements Optimizer.
func (a *Adam) Step(theta []float64, g *gradient.Sparse) error {
	if g.Dim != uint64(len(theta)) || len(a.mv) != len(theta) {
		return fmt.Errorf("optim: dim mismatch: grad %d, model %d, state %d",
			g.Dim, len(theta), len(a.mv))
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, k := range g.Keys {
		gv := g.Values[i]
		mv := &a.mv[k]
		mv[0] = a.Beta1*mv[0] + (1-a.Beta1)*gv
		mv[1] = a.Beta2*mv[1] + (1-a.Beta2)*gv*gv
		mHat := mv[0] / c1
		vHat := mv[1] / c2
		theta[k] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
	}
	return nil
}

// Reset implements Optimizer.
func (a *Adam) Reset() {
	clear(a.mv)
	a.t = 0
}

// Steps returns the number of updates applied since the last Reset.
func (a *Adam) Steps() int { return a.t }
