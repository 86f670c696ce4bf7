package gradient

import (
	"math/bits"
	"sync"

	"sketchml/internal/quantizer"
)

// Scatter builds a sparse gradient that is a sum of many (key, value) terms —
// a mini-batch gradient is one term per feature nonzero of the batch, and a
// frequent feature has hundreds. Each term is added straight into a dense
// accumulator, acc[key] += value, and marks its key in a two-level occupancy
// bitmap: one bit per key, and one summary bit per 64-key word that has a
// mark. SumInto walks the summary, then the marked words, so it visits the
// marked keys in ascending order without sorting them; of the key-level
// words it reads only those that hold a mark.
//
// The result is exact by construction: acc[key] starts at +0.0 and receives
// the key's terms in the order they were added, so every value is
// bit-identical to what acc[key] += value, applied term by term to a
// zero-initialised table, would hold.
//
// The scratch is sized by the model dimension — 8·dim + dim/8 + dim/512
// bytes — and is all-zero between uses: SumInto zeroes every entry it
// reads. A Scatter comes from GetScatter and goes back with PutScatter, so a
// warm build into a warm gradient allocates nothing. It must not be shared
// between goroutines.
type Scatter struct {
	acc     []float64 // key k's running sum; +0.0 wherever k is unmarked
	marked  []uint64  // bit k%64 of word k/64 is set when key k has a term
	summary []uint64  // bit w%64 of word w/64 is set when marked[w] is nonzero
	n       int       // marked keys
}

var scatterPool = sync.Pool{New: func() any { return new(Scatter) }}

// GetScatter returns an empty scatter over dim dimensions from the pool. A
// pooled scatter sized for a larger dimension serves dim as its prefix.
func GetScatter(dim uint64) *Scatter {
	s := scatterPool.Get().(*Scatter)
	s.resize(dim)
	return s
}

// PutScatter recycles s, which must not be used afterwards. The gradients
// SumInto filled own their storage and stay valid. A caller that panicked
// between its first Add and SumInto (a key past the model, recovered by a
// job supervisor) leaves marks behind; they are drained here by the same
// walk SumInto makes, so the pool only ever holds all-zero scratch.
func PutScatter(s *Scatter) {
	if s.n != 0 {
		s.SumInto(new(Sparse), nil, 0)
	}
	scatterPool.Put(s)
}

// resize makes s span dim keys. Storage beyond dim is all-zero, so it is
// kept; storage short of dim is replaced by fresh zeroed storage.
func (s *Scatter) resize(dim uint64) {
	words := (dim + 63) / 64
	sums := (words + 63) / 64
	if uint64(cap(s.acc)) < dim {
		s.acc, s.marked, s.summary = make([]float64, dim), make([]uint64, words), make([]uint64, sums)
	}
	s.acc, s.marked, s.summary = s.acc[:dim], s.marked[:words], s.summary[:sums]
}

// Add adds the term (key, value). A key at or past the dimension panics
// before s changes.
func (s *Scatter) Add(key uint64, value float64) {
	s.acc[key] += value
	w := key >> 6
	m := s.marked[w]
	s.n += int(^m >> (key & 63) & 1)
	s.marked[w] = m | 1<<(key&63)
	s.summary[w>>6] |= 1 << (w & 63)
}

// SumInto refills dst with the gradient over s's dimensions whose value at
// each key that has a term is the sum of that key's terms, in the order they
// were added, plus lambda·theta[key] when lambda is nonzero (the ℓ2
// regularizer restricted to the active keys; theta is not read otherwise);
// keys whose value comes to exactly zero are dropped. dst's storage is
// reused, and grown (with quantizer.Resize's headroom) only when its
// capacity falls short of the sum's key count, so a warm dst allocates
// nothing. The terms are consumed: s is empty and all-zero afterwards.
func (s *Scatter) SumInto(dst *Sparse, theta []float64, lambda float64) {
	keys, vals := quantizer.Resize(dst.Keys, s.n)[:0], quantizer.Resize(dst.Values, s.n)[:0]
	acc := s.acc
	for i, sw := range s.summary {
		for ; sw != 0; sw &= sw - 1 {
			w := i<<6 + bits.TrailingZeros64(sw)
			for m := s.marked[w]; m != 0; m &= m - 1 {
				k := w<<6 + bits.TrailingZeros64(m)
				sum := acc[k]
				acc[k] = 0
				if lambda != 0 {
					sum += float64(lambda * theta[k]) // the conversion rules out a fused multiply-add
				}
				if sum != 0 {
					keys = append(keys, uint64(k))
					vals = append(vals, sum)
				}
			}
			s.marked[w] = 0
		}
		s.summary[i] = 0
	}
	dst.Dim, dst.Keys, dst.Values = uint64(len(acc)), keys, vals
	s.n = 0
}
