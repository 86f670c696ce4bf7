package quantizer

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Buckets is the reusable result of BuildQuantileInto: the pane's
// quantizer (splits and means) plus every value's bucket index. A Buckets
// keeps its storage between builds, so a pooled one makes the build
// allocation-free once its capacities have warmed. The zero value is ready
// to use; a Buckets must not be copied after first use or shared between
// goroutines.
type Buckets struct {
	Quantile
	// Index[i] is the bucket of values[i] from the last build.
	Index []uint32

	// The sort scratch: elements are sortKey-high-half<<32 | position.
	elems, tmp []uint64
	hist       [3][radixBins]uint32
}

const (
	radixBits = 11
	radixBins = 1 << radixBits
	lowHalf   = 1<<32 - 1
)

// BuildQuantileInto builds a quantizer with q buckets over values into
// dst, and assigns every value its bucket in dst.Index. It is the one
// builder behind the codec's Encode and MergeInto.
//
// It sorts the values (they are all in memory; nothing streams) and reads
// the splits off the ranks: splits[b] is the value at sorted position
// ⌊b·n/q⌋ and splits[q] the maximum. The order is exact — a sort on the full
// 64-bit pattern — so every split sits at exactly its target rank (the εN
// contract with ε = 0). A value's bucket is the one its rank falls in,
// except that equal values stay together: all copies of a value that is
// itself a split go to the first bucket starting there. That is the bucket
// Quantile.Bucket finds for it, so Index[i] = Bucket(values[i]) for every
// i, equal gradients decode equal, and a value repeated across a whole
// bucket decodes to itself; on tie-free input populations differ by at most
// one.
func BuildQuantileInto(dst *Buckets, values []float64, q int) error {
	if err := checkBuild(values, q); err != nil {
		return err
	}
	dst.Index = Resize(dst.Index, len(values))
	dst.rankSplits(values, q)
	dst.fillMeans()
	return nil
}

// fillMeans sets z.means to the midpoints of consecutive splits.
func (z *Quantile) fillMeans() {
	z.means = Resize(z.means, len(z.splits)-1)
	for i := range z.means {
		z.means[i] = midpoint(z.splits[i], z.splits[i+1])
	}
}

// checkBuild rejects what neither builder can quantize.
func checkBuild(values []float64, q int) error {
	if len(values) == 0 {
		return errors.New("quantizer: no values")
	}
	if q < 1 {
		return fmt.Errorf("quantizer: q=%d < 1", q)
	}
	if uint64(len(values)) > math.MaxUint32 {
		return fmt.Errorf("quantizer: %d values exceed the 2^32 positions a bucket index list addresses", len(values))
	}
	return nil
}

// rankSplits fills b.splits and b.Index from the sorted order of values.
func (b *Buckets) rankSplits(values []float64, q int) {
	order := b.sortPositions(values)
	n := len(values)
	b.splits = Resize(b.splits, q+1)
	for bk := 0; bk < q; bk++ {
		lo, hi := bk*n/q, (bk+1)*n/q
		b.splits[bk] = values[order[lo]&lowHalf] // lo < n: bk < q
		for _, e := range order[lo:hi] {
			b.Index[e&lowHalf] = uint32(bk)
		}
	}
	b.splits[q] = values[order[n-1]&lowHalf]

	// Gather the copies of each split value into the first bucket that
	// starts at it. Only a run of ties that reaches a bucket's first
	// position is touched, so tie-free input costs q comparisons.
	for bk := 0; bk < q; bk++ {
		s := b.splits[bk]
		if bk > 0 && same(b.splits[bk-1], s) {
			continue
		}
		for p := bk*n/q - 1; p >= 0 && same(values[order[p]&lowHalf], s); p-- {
			b.Index[order[p]&lowHalf] = uint32(bk)
		}
		for p := (bk + 1) * n / q; p < n && same(values[order[p]&lowHalf], s); p++ {
			b.Index[order[p]&lowHalf] = uint32(bk)
		}
	}
}

// same reports a tie the way Quantile.Bucket sees one (−0 and +0 tie).
func same(a, b float64) bool {
	return a == b //lint:allow float-equality ties are exact repeats of one value
}

// sortKey maps v to a uint64 whose unsigned order is v's numeric order
// (with −0 directly below +0): negative patterns are inverted, the rest get
// the top bit set.
func sortKey(v float64) uint64 {
	bits := math.Float64bits(v)
	return bits ^ (uint64(int64(bits)>>63) | 1<<63)
}

// sortPositions returns the positions of values in ascending value order,
// ties in input order, in the low half of each returned element. The high
// halves are scratch.
//
// Three stable 11-bit counting passes order the elements by the high 32
// bits of their sort keys — sign, exponent and the top 20 mantissa bits,
// which already separates all but a handful of distinct gradient values.
// Runs that still tie there are re-keyed on the low 32 bits and sorted in
// place; with the position in the low half every element is distinct, so
// the order is total and needs no stable sort. Linear in n apart from
// those runs, which cost what a comparison sort of the run costs.
func (b *Buckets) sortPositions(values []float64) []uint64 {
	n := len(values)
	b.elems, b.tmp = Resize(b.elems, n), Resize(b.tmp, n)
	elems, tmp := b.elems, b.tmp
	hist := &b.hist
	*hist = [3][radixBins]uint32{}
	for i, v := range values {
		k := sortKey(v) >> 32
		elems[i] = k<<32 | uint64(i)
		hist[0][k&(radixBins-1)]++
		hist[1][k>>radixBits&(radixBins-1)]++
		hist[2][k>>(2*radixBits)]++
	}
	for d := range hist {
		h := &hist[d]
		var sum uint32
		for i, c := range h {
			h[i] = sum
			sum += c
		}
		shift := 32 + uint(d)*radixBits
		for _, e := range elems {
			digit := e >> shift & (radixBins - 1)
			tmp[h[digit]] = e
			h[digit]++
		}
		elems, tmp = tmp, elems
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && elems[hi]>>32 == elems[lo]>>32 {
			hi++
		}
		if hi-lo > 1 {
			run := elems[lo:hi]
			for i, e := range run {
				pos := e & lowHalf
				run[i] = sortKey(values[pos])<<32 | pos
			}
			slices.Sort(run)
		}
		lo = hi
	}
	return elems
}

// Resize returns s with length n, reusing its storage when capacity allows.
// The contents are unspecified. It is how reusable scratch (here, in the
// codec's encode and decode scratch and in a gradient's refill) takes its
// size for a call, and its one growth rule: storage that must grow gets
// capacity n + n/4, so a buffer whose size follows a message's nnz, which
// wanders from round to round, is reallocated once rather than at every new
// maximum. A table whose size is a bound a caller promises keeps that size
// by sizing itself.
func Resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n, n+n/4)
}
