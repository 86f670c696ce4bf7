package gradient

import (
	"math"
	"testing"
)

// accFuzzValues are the terms a fuzzed list draws from: both zeros, the
// smallest subnormals and the largest subnormal, values whose negations
// cancel them exactly, and magnitudes far enough apart that sums round.
var accFuzzValues = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 0x1p-1022 - 0x1p-1074,
	1, -1, 0.1, -0.1, 1.0 / 3, 3,
	1e16, -1e16, 1e-300, 1e300,
}

// fuzzLists builds 1–16 key lists over a small dimension from data. Byte 0
// picks the count W and byte 1 the weights: all 1, all 1/W, or each list's
// own pick of the two. A list is either the previous one negated at its
// weight, which cancels it exactly, or up to 11 ascending keys with values
// from accFuzzValues; a list of no keys is empty. Bytes past the end read as
// zero, which makes the remaining lists empty.
func fuzzLists(data []byte) (dim uint64, grads []*Sparse, weights []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	dim = 128
	w := int(next())%16 + 1
	mode := next() % 3
	grads, weights = make([]*Sparse, w), make([]float64, w)
	for i := range grads {
		weights[i] = 1
		if mode == 1 || (mode == 2 && next()&1 != 0) {
			weights[i] = 1 / float64(w)
		}
		g := NewSparse(dim, 0)
		if i > 0 && next()%4 == 0 {
			weights[i] = weights[i-1]
			for j, k := range grads[i-1].Keys {
				g.Append(k, -grads[i-1].Values[j])
			}
		} else {
			key := uint64(next() % 4)
			for n := next() % 12; n > 0 && key < dim; n-- {
				g.Append(key, accFuzzValues[int(next())%len(accFuzzValues)])
				key += uint64(next()%6) + 1
			}
		}
		grads[i] = g
	}
	return dim, grads, weights
}

// FuzzAccumulatorMatchesDense holds the Accumulator bit-identical to
// denseSum, the gradients added one after another into a dense vector, on
// any lists fuzzLists builds — twice per input, so the second sum runs on
// the first one's warm buffers.
// Run with: go test -fuzz FuzzAccumulatorMatchesDense ./internal/gradient
func FuzzAccumulatorMatchesDense(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{15, 1, 1, 3, 4, 7, 2, 5, 3, 0})
	f.Add([]byte{3, 0, 0, 11, 2, 1, 3, 1, 4, 1, 5, 0, 0, 9, 0, 2, 0, 3, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		dim, grads, weights := fuzzLists(data)
		acc := NewAccumulator(dim)
		for round := 0; round < 2; round++ {
			for i, g := range grads {
				if err := acc.Add(g, weights[i]); err != nil {
					t.Fatal(err)
				}
			}
			got, want := acc.Sum(), denseSum(dim, grads, weights)
			if err := got.Validate(); err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, want) {
				t.Fatalf("round %d: sum of %d lists (keys %v, values %v) differs from the dense sum (keys %v, values %v)",
					round, len(grads), got.Keys, got.Values, want.Keys, want.Values)
			}
		}
	})
}
