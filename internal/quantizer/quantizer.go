// Package quantizer implements the value-quantification strategies compared
// in the SketchML paper:
//
//   - Quantile-bucket quantification (Section 3.2): the observed value
//     distribution is cut into q equal-population buckets; each value is
//     replaced by its bucket's mean and encoded as the bucket index. This
//     adapts to the nonuniform, near-zero-concentrated distribution of real
//     gradients. The codec finds the cut points by sorting the values
//     (BuildQuantileInto); BuildQuantile finds them with the paper's
//     streaming GK sketch.
//   - Signed quantile quantification (Section 3.3, Solution 1): positive and
//     negative values are quantized separately over magnitudes,
//     so no bucket straddles zero and a decayed bucket index can never flip
//     a gradient's sign.
//   - Uniform quantification (the ZipML baseline): the value RANGE is split
//     into equal-width levels, which collapses most near-zero gradients to
//     zero on skewed data.
//   - One-bit quantification (1-bit SGD baseline): values are reduced to a
//     sign times the mean magnitude.
package quantizer

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"sketchml/internal/sketch/quantile"
)

// Quantile maps values to equal-population buckets. Bucket i covers
// [Splits[i], Splits[i+1]) (the last bucket is inclusive on the right) and
// decodes to the bucket mean (Splits[i]+Splits[i+1])/2.
type Quantile struct {
	splits []float64 // q+1 ascending split points
	means  []float64 // q bucket means
}

// BuildQuantile constructs a quantizer with at most q buckets from the
// given values, using a GK quantile sketch of the given summary size
// (the paper's m, default 128). It returns an error if values is empty.
// The codec builds through BuildQuantileInto instead.
func BuildQuantile(values []float64, q, sketchSize int) (*Quantile, error) {
	if err := checkBuild(values, q); err != nil {
		return nil, err
	}
	sk := quantile.NewWithSize(max(sketchSize, 2))
	sk.InsertAll(values)
	splits, err := sk.Splits(q)
	if err != nil {
		return nil, err
	}
	return NewQuantileFromSplits(splits)
}

// NewQuantileFromSplits constructs a quantizer directly from q+1
// non-decreasing split points (as decoded from the wire).
func NewQuantileFromSplits(splits []float64) (*Quantile, error) {
	if len(splits) < 2 {
		return nil, fmt.Errorf("quantizer: need >= 2 splits, have %d", len(splits))
	}
	for i := 1; i < len(splits); i++ {
		if splits[i] < splits[i-1] {
			return nil, fmt.Errorf("quantizer: splits not non-decreasing at %d", i)
		}
	}
	z := &Quantile{splits: splits}
	z.fillMeans()
	return z, nil
}

// midpoint returns (a+b)/2, a bucket's decoded value. Two magnitudes near
// MaxFloat64 overflow the sum; halving first is exact there.
func midpoint(a, b float64) float64 {
	m := (a + b) / 2
	if math.IsInf(m, 0) {
		m = a/2 + b/2
	}
	return m
}

// NumBuckets returns q.
func (z *Quantile) NumBuckets() int { return len(z.means) }

// Splits returns the split points (do not mutate).
func (z *Quantile) Splits() []float64 { return z.splits }

// Means returns the bucket means (do not mutate).
func (z *Quantile) Means() []float64 { return z.means }

// Bucket returns the bucket index for v. Values below the first split clamp
// to bucket 0 and values above the last split clamp to the final bucket
// (they can occur because sketch splits are approximate). A quantizer with
// no buckets — reachable only through a zero-value Quantile, which every
// constructor rejects — clamps to 0 instead of indexing out of range.
//
// The search is a fixed-stride binary search: the stride schedule depends
// only on len(splits) and each probe is a conditional-move update, so the
// encode hot loop pays neither the closure of sort.SearchFloat64s nor
// data-dependent branch mispredictions. The result is bit-identical to the
// sort.SearchFloat64s implementation it replaced, including NaN (all
// comparisons false, so v clamps to the last bucket exactly as before).
func (z *Quantile) Bucket(v float64) int {
	if len(z.means) == 0 {
		return 0
	}
	// Largest i with !(splits[i] >= v), probed at power-of-two strides;
	// lb is then the first index with splits[lb] >= v — the same lower
	// bound SearchFloat64s computes (the negated predicate keeps NaN on
	// the same side it lands there).
	n := len(z.splits)
	i := -1
	for step := 1 << (bits.Len(uint(n)) - 1); step > 0; step >>= 1 {
		if j := i + step; j < n && !(z.splits[j] >= v) {
			i = j
		}
	}
	lb := i + 1
	if lb == n {
		return len(z.means) - 1
	}
	if z.splits[lb] == v { //lint:allow float-equality exact split boundary tie-break
		// v sits exactly on a split: it belongs to the bucket starting at v,
		// except at the very top where it falls into the last bucket.
		if lb == len(z.means) {
			return len(z.means) - 1
		}
		return lb
	}
	if lb == 0 {
		return 0
	}
	return lb - 1
}

// Mean returns the decoded value for bucket index i (clamped to range).
// A bucketless zero-value Quantile decodes everything to 0, mirroring
// Bucket's clamp.
func (z *Quantile) Mean(i int) float64 {
	if len(z.means) == 0 {
		return 0
	}
	if i < 0 {
		i = 0
	}
	if i >= len(z.means) {
		i = len(z.means) - 1
	}
	return z.means[i]
}

// Encode quantizes v to its bucket mean.
func (z *Quantile) Encode(v float64) float64 { return z.means[z.Bucket(v)] }

// Signed quantizes positive and negative values with independent quantile
// quantizers over magnitudes, implementing the paper's positive/negative
// separation. Buckets are ordered by magnitude: bucket 0 of either sign is
// the one closest to zero, so MinMaxSketch's min-insert decay always moves
// a decoded value toward zero and never across it.
type Signed struct {
	pos *Quantile // over positive values
	neg *Quantile // over |negative values|
}

// BuildSigned constructs the pair of quantizers. Zero values (which should
// not occur in a sparse gradient) are routed to the positive side. Either
// side may be nil when no values of that sign exist.
func BuildSigned(values []float64, q, sketchSize int) (*Signed, error) {
	if len(values) == 0 {
		return nil, errors.New("quantizer: no values")
	}
	var pos, neg []float64
	for _, v := range values {
		if v >= 0 {
			pos = append(pos, v)
		} else {
			neg = append(neg, -v)
		}
	}
	s := &Signed{}
	var err error
	if len(pos) > 0 {
		if s.pos, err = BuildQuantile(pos, q, sketchSize); err != nil {
			return nil, err
		}
	}
	if len(neg) > 0 {
		if s.neg, err = BuildQuantile(neg, q, sketchSize); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Bucket returns (negative?, magnitude-ordered bucket index) for v.
func (s *Signed) Bucket(v float64) (neg bool, idx int) {
	if v >= 0 {
		if s.pos == nil {
			return false, 0
		}
		return false, s.pos.Bucket(v)
	}
	if s.neg == nil {
		return true, 0
	}
	return true, s.neg.Bucket(-v)
}

// Uniform is the ZipML-style fixed-point quantizer: the range [min, max] is
// divided into levels equal-WIDTH steps.
type Uniform struct {
	min, max float64
	levels   int
}

// BuildUniform constructs a uniform quantizer spanning the observed value
// range with the given number of levels (256 for 8-bit, 65536 for 16-bit).
func BuildUniform(values []float64, levels int) (*Uniform, error) {
	if len(values) == 0 {
		return nil, errors.New("quantizer: no values")
	}
	if levels < 2 {
		return nil, fmt.Errorf("quantizer: levels=%d < 2", levels)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return NewUniform(lo, hi, levels)
}

// NewUniform constructs a uniform quantizer over [min, max].
func NewUniform(min, max float64, levels int) (*Uniform, error) {
	if levels < 2 {
		return nil, fmt.Errorf("quantizer: levels=%d < 2", levels)
	}
	if !(min <= max) {
		return nil, fmt.Errorf("quantizer: invalid range [%v, %v]", min, max)
	}
	return &Uniform{min: min, max: max, levels: levels}, nil
}

// Range returns the covered [min, max].
func (u *Uniform) Range() (float64, float64) { return u.min, u.max }

// Bucket maps v to its level index, clamped into [0, levels).
func (u *Uniform) Bucket(v float64) int {
	if u.max == u.min { //lint:allow float-equality degenerate zero-width range guard
		return 0
	}
	idx := int(math.Round((v - u.min) / (u.max - u.min) * float64(u.levels-1)))
	if idx < 0 {
		idx = 0
	}
	if idx >= u.levels {
		idx = u.levels - 1
	}
	return idx
}

// Mean decodes level index i back to a value.
func (u *Uniform) Mean(i int) float64 {
	if u.max == u.min { //lint:allow float-equality degenerate zero-width range guard
		return u.min
	}
	if i < 0 {
		i = 0
	}
	if i >= u.levels {
		i = u.levels - 1
	}
	return u.min + float64(i)*(u.max-u.min)/float64(u.levels-1)
}

// Encode quantizes v to the nearest level value.
func (u *Uniform) Encode(v float64) float64 { return u.Mean(u.Bucket(v)) }

// OneBit is the 1-bit SGD baseline: each value collapses to
// sign(v) * mean(|values|).
type OneBit struct {
	scale float64
}

// BuildOneBit constructs the quantizer from the mean magnitude of values.
func BuildOneBit(values []float64) (*OneBit, error) {
	if len(values) == 0 {
		return nil, errors.New("quantizer: no values")
	}
	var sum float64
	for _, v := range values {
		sum += math.Abs(v)
	}
	return &OneBit{scale: sum / float64(len(values))}, nil
}

// Scale returns the magnitude every value decodes to.
func (o *OneBit) Scale() float64 { return o.scale }
