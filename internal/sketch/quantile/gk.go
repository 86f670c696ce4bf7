// Package quantile implements the Greenwald–Khanna (GK) streaming quantile
// sketch used by SketchML's quantile-bucket quantification.
//
// The GK algorithm (SIGMOD 2001) maintains a small ordered summary of an
// unbounded stream such that any rank query is answered within εn of the
// true rank, using O((1/ε)·log(εn)) space. SketchML builds one sketch per
// gradient, extracts q equal-population split points from it, and quantizes
// every gradient value to its bucket.
//
// This implementation supports single-value insertion, prune (compressing
// a summary back under its size bound) and quantile queries. It
// substitutes for the Yahoo DataSketches library used by the paper's
// prototype; both provide the same ε-approximate contract.
package quantile

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sketchml/internal/invariant"
)

// tuple is one entry of the GK summary.
//
// For the i-th tuple (ordered by value), the true minimum possible rank of
// value is rmin(i) = Σ_{j≤i} g_j and the maximum possible rank is
// rmax(i) = rmin(i) + delta_i.
type tuple struct {
	value float64
	g     int64 // rmin increment relative to the previous tuple
	delta int64 // rmax - rmin for this tuple
}

// GK is a Greenwald–Khanna quantile summary for float64 observations.
// The zero value is not usable; construct with New or NewWithSize.
//
// GK is not safe for concurrent mutation.
type GK struct {
	eps     float64
	tuples  []tuple
	n       int64
	buf     []float64 // pending unsorted inserts
	bufCap  int
	ordered bool // buf already sorted (used by flush)
}

// New returns a sketch answering rank queries within eps*n.
// eps must be in (0, 0.5].
func New(eps float64) *GK {
	if !(eps > 0 && eps <= 0.5) {
		invariant.Failf("quantile: eps %v out of (0, 0.5]", eps)
	}
	bufCap := int(1.0/(2.0*eps)) + 1
	if bufCap < 16 {
		bufCap = 16
	}
	return &GK{eps: eps, bufCap: bufCap}
}

// NewWithSize returns a sketch whose accuracy corresponds to a summary of
// roughly m retained points, i.e. eps = 1/m. This mirrors the paper's
// "size of quantile sketch" hyper-parameter (default 128).
func NewWithSize(m int) *GK {
	if m < 2 {
		invariant.Fail("quantile: size must be at least 2")
	}
	return New(1.0 / float64(m))
}

// Insert adds one observation to the sketch. NaN values are rejected
// because they have no rank.
func (s *GK) Insert(v float64) {
	if math.IsNaN(v) {
		invariant.Fail("quantile: cannot insert NaN")
	}
	s.buf = append(s.buf, v)
	s.ordered = false
	if len(s.buf) >= s.bufCap {
		s.flush()
	}
}

// InsertAll adds every value in vs.
func (s *GK) InsertAll(vs []float64) {
	for _, v := range vs {
		s.Insert(v)
	}
}

// flush merges the pending buffer into the summary and prunes.
func (s *GK) flush() {
	if len(s.buf) == 0 {
		return
	}
	if !s.ordered {
		sort.Float64s(s.buf)
		s.ordered = true
	}
	// Merge the sorted buffer into the tuple list. A batch insert of sorted
	// values is equivalent to repeated single inserts with delta chosen as
	// in GK: delta = floor(2*eps*n) - 1 for interior points, 0 at extremes.
	out := make([]tuple, 0, len(s.tuples)+len(s.buf))
	i, j := 0, 0
	for i < len(s.tuples) || j < len(s.buf) {
		if j >= len(s.buf) {
			out = append(out, s.tuples[i])
			i++
			continue
		}
		if i >= len(s.tuples) || s.buf[j] < s.tuples[i].value {
			v := s.buf[j]
			s.n++
			var delta int64
			// Extremes must be exact for min/max queries to be exact.
			atEdge := (i == 0 && len(out) == 0) || (i >= len(s.tuples) && j == len(s.buf)-1)
			if !atEdge {
				delta = int64(2*s.eps*float64(s.n)) - 1
				if delta < 0 {
					delta = 0
				}
			}
			out = append(out, tuple{value: v, g: 1, delta: delta})
			j++
			continue
		}
		out = append(out, s.tuples[i])
		i++
	}
	s.tuples = out
	s.buf = s.buf[:0]
	s.prune()
}

// prune implements GK's COMPRESS: adjacent tuples are merged while the
// invariant g_i + g_{i+1} + delta_{i+1} < 2*eps*n holds, keeping the
// summary small without violating the error bound.
func (s *GK) prune() {
	if len(s.tuples) < 3 {
		return
	}
	threshold := int64(2 * s.eps * float64(s.n))
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	for k := 1; k < len(s.tuples)-1; k++ {
		t := s.tuples[k]
		last := &out[len(out)-1]
		// Never merge into the first tuple: the minimum must stay exact.
		if len(out) > 1 && last.g+t.g+t.delta <= threshold && last.delta >= t.delta {
			// Absorb the previous tuple into t.
			t.g += last.g
			out[len(out)-1] = t
		} else {
			out = append(out, t)
		}
	}
	out = append(out, s.tuples[len(s.tuples)-1])
	s.tuples = out
}

// Query returns a value whose rank is within eps*n of phi*n, for
// phi in [0, 1]. Query(0) returns the exact minimum and Query(1) the exact
// maximum. It returns an error if the sketch is empty.
func (s *GK) Query(phi float64) (float64, error) {
	if phi < 0 || phi > 1 {
		return 0, fmt.Errorf("quantile: phi %v out of [0,1]", phi)
	}
	s.flush()
	if len(s.tuples) == 0 {
		return 0, errors.New("quantile: empty sketch")
	}
	if phi == 0 {
		return s.tuples[0].value, nil
	}
	if phi >= 1 { // validated phi <= 1 above; exact top rank
		return s.tuples[len(s.tuples)-1].value, nil
	}
	target := int64(math.Ceil(phi * float64(s.n)))
	tol := int64(math.Ceil(s.eps * float64(s.n)))
	var rmin int64
	for i := range s.tuples {
		rmin += s.tuples[i].g
		rmax := rmin + s.tuples[i].delta
		if target-rmin <= tol && rmax-target <= tol {
			return s.tuples[i].value, nil
		}
	}
	// Fallback: the last tuple always satisfies rank n.
	return s.tuples[len(s.tuples)-1].value, nil
}

// Splits returns the q+1 split points
// {rank(0), rank(1/q), ..., rank((q-1)/q), rank(1)} that divide the inserted
// values into q buckets of (approximately) equal population, exactly as
// SketchML's Step 1 "Quantile Split" prescribes.
func (s *GK) Splits(q int) ([]float64, error) { return splits(s, q) }

// splits queries sk at the q+1 ranks {0, 1/q, ..., 1}: the split points of
// q buckets of (approximately) equal population.
func splits(sk Sketch, q int) ([]float64, error) {
	if q < 1 {
		return nil, fmt.Errorf("quantile: bucket count %d < 1", q)
	}
	out := make([]float64, q+1)
	for i := range out {
		v, err := sk.Query(float64(i) / float64(q))
		if err != nil {
			return nil, err
		}
		// Enforce monotonicity (approximate answers can tie or invert
		// within tolerance); downstream bucket search requires
		// non-decreasing splits.
		if i > 0 && v < out[i-1] {
			v = out[i-1]
		}
		out[i] = v
	}
	return out, nil
}
