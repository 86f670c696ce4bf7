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
// Every input already holds its keys in ascending order, so the sum is a
// k-way merge of the key lists, run as ⌈log₂ k⌉ rounds of pairwise merges
// of neighbours — O(n log k) for n input nonzeros from k gradients, every
// round a sequential pass, and no Dim-sized state. The rounds before the
// last only interleave: a merge is stable and its left operand holds the
// earlier Adds, so terms that share a key stay in Add order. The last round
// adds them up in that order, starting from zero, which makes every sum
// bit-identical to adding the gradients one after another into a dense
// vector: the result depends on the order of the Add calls and on nothing
// else.
type Accumulator struct {
	dim  uint64
	runs []terms // recorded by Add, in Add order; merged pairwise by Sum
	// Sum's scratch, kept between rounds: the merge rounds alternate between
	// the two buffers, each as long as the inputs together.
	buf [2]terms
	sum Sparse // what Sum returns: a view of the buffer the last round wrote
}

// terms is a list of weighted terms of the sum, ascending by key and, within
// a key, in Add order. A term's value is vals[i]·weight.
type terms struct {
	keys   []uint64
	vals   []float64
	weight float64
}

// NewAccumulator creates an accumulator over dim dimensions.
func NewAccumulator(dim uint64) *Accumulator {
	return &Accumulator{dim: dim}
}

// Reset empties a and makes it an accumulator over dim dimensions, keeping
// its buffers for the next sum.
func (a *Accumulator) Reset(dim uint64) {
	clear(a.runs)
	a.runs = a.runs[:0]
	a.dim = dim
}

// Add records g, scaled by weight, as the next term of the sum. Nothing is
// read until Sum: the accumulator keeps g's slices, so g must stay
// unmodified until Sum returns — decode the next round into it only after
// that. g must satisfy Validate (keys strictly ascending).
func (a *Accumulator) Add(g *Sparse, weight float64) error {
	if g.Dim != a.dim {
		return fmt.Errorf("gradient: accumulator dim %d, gradient dim %d", a.dim, g.Dim)
	}
	a.runs = append(a.runs, terms{keys: g.Keys, vals: g.Values, weight: weight})
	return nil
}

// Sum returns the weighted sum of the added gradients, dropping keys whose
// values sum to exactly zero, and resets the accumulator, releasing the
// added gradients. The result is the accumulator's own storage, not a copy:
// it is valid until the next Add or Sum on a, and a caller that keeps it
// longer must Clone it.
func (a *Accumulator) Sum() *Sparse {
	runs := a.runs
	n := 0
	for _, r := range runs {
		n += len(r.keys)
	}
	for i := range a.buf {
		if i > 0 && len(runs) <= 2 {
			break // one or two runs add up straight into the first buffer
		}
		b := &a.buf[i]
		if cap(b.keys) < n {
			// A quarter of headroom: a round's input size wanders by a few
			// percent, and without the slack every new maximum would
			// reallocate the scratch.
			b.keys, b.vals = make([]uint64, n, n+n/4), make([]float64, n, n+n/4)
		}
		b.keys, b.vals = b.keys[:n], b.vals[:n]
	}
	dst := 0
	for ; len(runs) > 2; dst ^= 1 {
		// Merge neighbours into consecutive stretches of the free buffer; an
		// odd run out merges with nothing, which copies it across.
		merged, off := runs[:0], 0
		for i := 0; i < len(runs); i += 2 {
			var right terms
			if i+1 < len(runs) {
				right = runs[i+1]
			}
			end := off + len(runs[i].keys) + len(right.keys)
			out := terms{keys: a.buf[dst].keys[off:end], vals: a.buf[dst].vals[off:end], weight: 1}
			interleave(out, runs[i], right)
			merged, off = append(merged, out), end
		}
		runs = merged
	}
	var left, right terms
	if len(runs) > 0 {
		left = runs[0]
	}
	if len(runs) > 1 {
		right = runs[1]
	}
	keys, vals := addUp(a.buf[dst].keys[:0], a.buf[dst].vals[:0], left, right)
	clear(a.runs) // drop the references to the added gradients
	a.runs = a.runs[:0]
	a.sum = Sparse{Dim: a.dim, Keys: keys, Values: vals}
	return &a.sum
}

// interleave merges a and b into out, which is as long as both together,
// applying their weights. Where keys tie, a's terms come first.
func interleave(out, a, b terms) {
	i, j := 0, 0
	for o := range out.keys {
		if j == len(b.keys) || (i < len(a.keys) && a.keys[i] <= b.keys[j]) {
			out.keys[o], out.vals[o] = a.keys[i], a.vals[i]*a.weight
			i++
		} else {
			out.keys[o], out.vals[o] = b.keys[j], b.vals[j]*b.weight
			j++
		}
	}
}

// addUp is the last merge round: for every key of a or b in ascending order
// it adds the key's terms, a's before b's, and appends the sums that are not
// exactly zero to keys and vals.
func addUp(keys []uint64, vals []float64, a, b terms) ([]uint64, []float64) {
	i, j := 0, 0
	for i < len(a.keys) || j < len(b.keys) {
		var key uint64
		if j == len(b.keys) || (i < len(a.keys) && a.keys[i] <= b.keys[j]) {
			key = a.keys[i]
		} else {
			key = b.keys[j]
		}
		var sum float64
		for ; i < len(a.keys) && a.keys[i] == key; i++ {
			sum += float64(a.vals[i] * a.weight)
		}
		for ; j < len(b.keys) && b.keys[j] == key; j++ {
			sum += float64(b.vals[j] * b.weight)
		}
		if sum != 0 {
			keys = append(keys, key)
			vals = append(vals, sum)
		}
	}
	return keys, vals
}
