// Package gradient provides the sparse and dense gradient vector types that
// flow through SketchML: a sparse gradient is the list of (key, value)
// pairs for the nonzero dimensions of a model update, kept sorted by key so
// that delta-binary key encoding applies.
package gradient

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sketchml/internal/invariant"
)

// Sparse is a sparse gradient vector over a model of Dim dimensions,
// stored as parallel key/value slices with Keys strictly ascending.
type Sparse struct {
	Dim    uint64
	Keys   []uint64
	Values []float64
}

// NewSparse creates an empty sparse gradient with capacity hint n.
func NewSparse(dim uint64, n int) *Sparse {
	return &Sparse{
		Dim:    dim,
		Keys:   make([]uint64, 0, n),
		Values: make([]float64, 0, n),
	}
}

// NNZ returns the number of nonzero entries (the paper's d).
func (g *Sparse) NNZ() int { return len(g.Keys) }

// Sparsity returns d/D, the fraction of dimensions that are nonzero.
func (g *Sparse) Sparsity() float64 {
	if g.Dim == 0 {
		return 0
	}
	return float64(len(g.Keys)) / float64(g.Dim)
}

// Validate checks the structural invariants: equal-length slices, strictly
// ascending keys, keys < Dim, finite values.
func (g *Sparse) Validate() error {
	if len(g.Keys) != len(g.Values) {
		return fmt.Errorf("gradient: %d keys but %d values", len(g.Keys), len(g.Values))
	}
	for i, k := range g.Keys {
		if k >= g.Dim {
			return fmt.Errorf("gradient: key %d >= dim %d", k, g.Dim)
		}
		if i > 0 && k <= g.Keys[i-1] {
			return fmt.Errorf("gradient: keys not strictly ascending at %d", i)
		}
		if !Finite(g.Values[i]) {
			return fmt.Errorf("gradient: non-finite value at key %d", k)
		}
	}
	return nil
}

// Finite reports whether v is neither NaN nor ±Inf: one compare on the
// exponent field, which is all ones for exactly those values.
func Finite(v float64) bool {
	const expMask = 0x7FF << 52
	return math.Float64bits(v)&expMask != expMask
}

// Clone returns a deep copy.
func (g *Sparse) Clone() *Sparse {
	return &Sparse{
		Dim:    g.Dim,
		Keys:   append([]uint64(nil), g.Keys...),
		Values: append([]float64(nil), g.Values...),
	}
}

// MaxAbs returns the largest absolute value, or 0 if empty.
func (g *Sparse) MaxAbs() float64 {
	var m float64
	for _, v := range g.Values {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Get returns the value at key k (0 if absent) using binary search.
func (g *Sparse) Get(k uint64) float64 {
	i := sort.Search(len(g.Keys), func(i int) bool { return g.Keys[i] >= k })
	if i < len(g.Keys) && g.Keys[i] == k {
		return g.Values[i]
	}
	return 0
}

// Append adds an entry; the key must exceed the current last key.
func (g *Sparse) Append(k uint64, v float64) {
	if n := len(g.Keys); n > 0 && k <= g.Keys[n-1] {
		invariant.Failf("gradient: Append key %d not ascending (last %d)", k, g.Keys[n-1])
	}
	g.Keys = append(g.Keys, k)
	g.Values = append(g.Values, v)
}

// ToDense materializes the gradient as a dense vector of length Dim.
func (g *Sparse) ToDense() []float64 {
	out := make([]float64, g.Dim)
	for i, k := range g.Keys {
		out[k] = g.Values[i]
	}
	return out
}

// FromDense builds a sparse gradient from a dense vector, keeping entries
// with |v| > threshold (pass 0 to keep all nonzeros).
func FromDense(dense []float64, threshold float64) *Sparse {
	g := NewSparse(uint64(len(dense)), 0)
	for k, v := range dense {
		if math.Abs(v) > threshold {
			g.Append(uint64(k), v)
		}
	}
	return g
}

// FromMap builds a sparse gradient from an unordered key→value map,
// dropping the keys whose value is exactly zero.
func FromMap(dim uint64, m map[uint64]float64) *Sparse {
	keys := make([]uint64, 0, len(m))
	for k, v := range m {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	return &Sparse{Dim: dim, Keys: keys, Values: vals}
}

// Accumulator sums weighted sparse gradients from many workers into one
// sparse gradient. This is what the paper's driver does when it gathers
// {g_w} from W executors.
//
// It is a thin layer over Scatter: each Add scatters g's weighted values
// into a pooled scatter over the accumulator's dimension, so the terms of a
// key are added in Add order, starting from zero, and every sum is
// bit-identical to adding the gradients one after another into a dense
// vector: the result depends on the order of the Add calls and on nothing
// else. The scatter is borrowed at the first Add and returned at Sum, so
// between sums the accumulator holds no Dim-sized state.
type Accumulator struct {
	dim uint64
	s   *Scatter // borrowed by the first Add, returned by Sum
	sum Sparse   // what Sum returns, refilled every Sum
}

// NewAccumulator creates an accumulator over dim dimensions.
func NewAccumulator(dim uint64) *Accumulator {
	return &Accumulator{dim: dim}
}

// Add adds g, scaled by weight, as the next term of the sum. g is read
// before Add returns, so the caller may overwrite it at once. A g over
// another dimension is refused before a changes; g's keys must be below the
// dimension, as Validate requires.
func (a *Accumulator) Add(g *Sparse, weight float64) error {
	if g.Dim != a.dim {
		return fmt.Errorf("gradient: accumulator dim %d, gradient dim %d", a.dim, g.Dim)
	}
	if a.s == nil {
		a.s = GetScatter(a.dim)
	}
	for i, k := range g.Keys {
		a.s.Add(k, float64(g.Values[i]*weight)) // the conversion rules out a fused multiply-add
	}
	return nil
}

// Sum returns the weighted sum of the added gradients, dropping keys whose
// values sum to exactly zero, and empties the accumulator. The result is
// the accumulator's own storage, not a copy: it is valid until the next Sum
// on a, and a caller that keeps it longer must Clone it.
func (a *Accumulator) Sum() *Sparse {
	a.sum.Dim, a.sum.Keys, a.sum.Values = a.dim, a.sum.Keys[:0], a.sum.Values[:0]
	if a.s == nil {
		return &a.sum
	}
	a.s.SumInto(&a.sum, nil, 0)
	PutScatter(a.s)
	a.s = nil
	return &a.sum
}
