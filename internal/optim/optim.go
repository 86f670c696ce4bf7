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
	// state is MarshalState's output buffer, reused across calls; a caller
	// that appends the state into its own blob (AppendState) never sizes it.
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

// Step implements Optimizer. The hyper-parameters and the moments live in
// locals for the loop: stores into θ could alias the fields as far as the
// compiler knows, so it would reload every one of them per key otherwise.
func (a *Adam) Step(theta []float64, g *gradient.Sparse) error {
	moments := a.mv
	if g.Dim != uint64(len(theta)) || len(moments) != len(theta) {
		return fmt.Errorf("optim: dim mismatch: grad %d, model %d, state %d",
			g.Dim, len(theta), len(moments))
	}
	a.t++
	lr, b1, b2, eps := a.LR, a.Beta1, a.Beta2, a.Epsilon
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	keys, vals := g.Keys, g.Values[:len(g.Keys)]
	for i, k := range keys {
		gv := vals[i]
		mv := &moments[k]
		mv[0] = b1*mv[0] + (1-b1)*gv
		mv[1] = b2*mv[1] + (1-b2)*gv*gv
		mHat := mv[0] / c1
		vHat := mv[1] / c2
		theta[k] -= lr * mHat / (math.Sqrt(vHat) + eps)
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
