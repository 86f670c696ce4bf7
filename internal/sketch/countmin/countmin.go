// Package countmin implements the Count-Min frequency sketch of Cormode and
// Muthukrishnan (Journal of Algorithms 2005), the classical structure that
// SketchML's Section 2.4 reviews and whose additive insert strategy the
// paper shows to be unusable for bucket indexes (it only overestimates,
// which amplifies decoded gradients and destabilizes SGD).
//
// It is included both as a reproduction of the paper's Figure 1 baseline and
// for the ablation bench that contrasts additive-min behaviour with
// MinMaxSketch's min-insert/max-query strategy.
package countmin

import (
	"math"

	"sketchml/internal/hashing"
	"sketchml/internal/invariant"
)

// Sketch is a Count-Min sketch with s rows (hash tables) of t counters each.
// Insert adds to one counter per row; Query returns the minimum candidate.
//
// Estimates never underestimate: Query(x) >= true frequency of x, and with
// probability 1-delta, Query(x) <= true + eps*N when rows = ceil(ln(1/delta))
// and cols = ceil(e/eps).
type Sketch struct {
	rows, cols int
	counts     []uint64 // rows*cols, row-major
	family     *hashing.Family
}

// New creates a sketch with the given number of rows (hash tables) and
// columns (bins per table), seeded deterministically.
func New(rows, cols int, seed uint64) *Sketch {
	if rows <= 0 || cols <= 0 {
		invariant.Failf("countmin: invalid dimensions %dx%d", rows, cols)
	}
	return &Sketch{
		rows:   rows,
		cols:   cols,
		counts: make([]uint64, rows*cols),
		family: hashing.NewFamily(rows, cols, seed),
	}
}

// InsertWeighted adds w occurrences of key.
func (s *Sketch) InsertWeighted(key uint64, w uint64) {
	for r := 0; r < s.rows; r++ {
		s.counts[r*s.cols+s.family.Index(r, key)] += w
	}
}

// Query returns the estimated frequency of key: the minimum counter across
// rows. The estimate never underestimates the true frequency.
func (s *Sketch) Query(key uint64) uint64 {
	min := uint64(math.MaxUint64)
	for r := 0; r < s.rows; r++ {
		if c := s.counts[r*s.cols+s.family.Index(r, key)]; c < min {
			min = c
		}
	}
	return min
}
