package gradient

import (
	"math/bits"
	"slices"
	"sync"
)

// Terms builds a sparse gradient that is a sum of many (key, value) terms —
// a mini-batch gradient is one term per feature nonzero of the batch, and a
// frequent feature has hundreds. The terms are appended flat in the order
// they are emitted, ordered by key with a stable radix sort, and each key's
// run is added up in one pass.
//
// Stability is what makes the result exact: within a run the terms are
// still in emission order, and each run is summed from 0.0 in that order,
// so every value is bit-identical to what acc[key] += value, applied term
// by term to a zero-initialised table, would hold. The sort moves terms;
// it never reassociates a sum.
//
// The scratch is two slices as long as the term list and one digit
// histogram; nothing is sized by the model dimension. A Terms comes from
// GetTerms and goes back with PutTerms, so a warm build into a warm
// gradient allocates nothing. It must not be shared between goroutines.
type Terms struct {
	terms, tmp []term
	hist       [termRadixBins]int
}

// term is one addend of the sum. Key and value travel together, so a sort
// pass writes one stream per digit, not two.
type term struct {
	key uint64
	val float64
}

const (
	termRadixBits = 11
	termRadixBins = 1 << termRadixBits
)

var termsPool = sync.Pool{New: func() any { return new(Terms) }}

// GetTerms returns an empty term list from the pool.
func GetTerms() *Terms { return termsPool.Get().(*Terms) }

// PutTerms recycles t, which must not be used afterwards. The gradients
// SumInto filled own their storage and stay valid. The list is emptied here
// as well as by SumInto, so a caller that panicked between GetTerms and
// SumInto (a key past the model, recovered by a job supervisor) cannot hand
// its partial list to the next.
func PutTerms(t *Terms) {
	t.terms = t.terms[:0]
	termsPool.Put(t)
}

// Add appends the term (key, value).
func (t *Terms) Add(key uint64, value float64) {
	t.terms = append(t.terms, term{key, value})
}

// SumInto refills dst with the gradient over dim dimensions whose value at
// each key that has a term is the sum of that key's terms, in the order they
// were added, plus lambda·theta[key] when lambda is nonzero (the ℓ2
// regularizer restricted to the active keys; theta is not read otherwise);
// keys whose value comes to exactly zero are dropped. dst's storage is
// reused, and grown only when its capacity falls short of the sum's key
// count, so a warm dst allocates nothing. Every key must be below dim. The terms
// are consumed: t is empty afterwards.
func (t *Terms) SumInto(dst *Sparse, dim uint64, theta []float64, lambda float64) {
	if dim > 0 {
		t.sortByKey(dim - 1)
	}
	terms := t.terms
	runs := 0
	for i := range terms {
		if i == 0 || terms[i].key != terms[i-1].key {
			runs++
		}
	}
	keys, vals := slices.Grow(dst.Keys[:0], runs), slices.Grow(dst.Values[:0], runs)
	for i := 0; i < len(terms); {
		k := terms[i].key
		sum := 0.0
		for ; i < len(terms) && terms[i].key == k; i++ {
			sum += terms[i].val
		}
		if lambda != 0 {
			sum += float64(lambda * theta[k]) // the conversion rules out a fused multiply-add
		}
		if sum != 0 {
			keys = append(keys, k)
			vals = append(vals, sum)
		}
	}
	dst.Dim, dst.Keys, dst.Values = dim, keys, vals
	t.terms = t.terms[:0]
}

// sortByKey orders the terms by key, terms of one key staying in the order
// they were added: least-significant-digit radix sort in 11-bit digits, each
// pass a stable counting scatter into the other slice, over as many digits
// as maxKey has — two for a model of up to 2²² dimensions.
func (t *Terms) sortByKey(maxKey uint64) {
	n := len(t.terms)
	if cap(t.tmp) < n {
		t.tmp = make([]term, n)
	}
	src, dst := t.terms, t.tmp[:n]
	hist := &t.hist
	for shift := 0; shift < bits.Len64(maxKey); shift += termRadixBits {
		clear(hist[:])
		for i := range src {
			hist[src[i].key>>shift&(termRadixBins-1)]++
		}
		sum := 0
		for d, c := range hist {
			hist[d] = sum
			sum += c
		}
		for i := range src {
			d := src[i].key >> shift & (termRadixBins - 1)
			dst[hist[d]] = src[i]
			hist[d]++
		}
		src, dst = dst, src
	}
	t.terms, t.tmp = src, dst
}
