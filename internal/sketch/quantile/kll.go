package quantile

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sketchml/internal/invariant"
)

// KLL is a Karnin–Lang–Liberty quantile sketch — the algorithm behind the
// Yahoo/Apache DataSketches library that the paper's prototype uses for its
// quantile splits (Section 3.2, "Here we choose Yahoo DataSketches").
//
// The sketch keeps a hierarchy of compactors. Level 0 buffers raw items;
// when a level overflows it sorts its buffer and promotes every other item
// (chosen by a random coin flip) to the next level, which represents each
// item with weight 2^level. Rank queries sum the weights of retained items
// below the query point. Space is O(k·log(n/k)) and rank error is
// proportional to 1/k with high probability.
//
// The randomness is seeded per sketch, so runs are reproducible.
type KLL struct {
	k      int
	levels [][]float64
	n      int64
	rng    *rand.Rand
	min    float64
	max    float64
}

// NewKLL creates a KLL sketch with parameter k (the size of the largest
// compactor; 128–256 matches the paper's "size of quantile sketch").
func NewKLL(k int, seed int64) *KLL {
	if k < 8 {
		invariant.Failf("quantile: KLL k=%d too small (need >= 8)", k)
	}
	return &KLL{
		k:      k,
		levels: [][]float64{make([]float64, 0, k)},
		rng:    rand.New(rand.NewSource(seed)),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Retained returns the number of items currently stored across levels.
func (s *KLL) Retained() int {
	total := 0
	for _, l := range s.levels {
		total += len(l)
	}
	return total
}

// capacityAt returns the capacity of the given level: levels shrink
// geometrically below the top (factor ~2/3 as in the KLL paper's practical
// variant), with a floor of 8.
func (s *KLL) capacityAt(level, numLevels int) int {
	depth := numLevels - 1 - level
	c := float64(s.k)
	for i := 0; i < depth; i++ {
		c *= 2.0 / 3.0
	}
	if c < 8 {
		return 8
	}
	return int(c)
}

// Insert adds one observation.
func (s *KLL) Insert(v float64) {
	if math.IsNaN(v) {
		invariant.Fail("quantile: cannot insert NaN")
	}
	s.levels[0] = append(s.levels[0], v)
	s.n++
	s.min = math.Min(s.min, v)
	s.max = math.Max(s.max, v)
	if len(s.levels[0]) >= s.capacityAt(0, len(s.levels)) {
		s.compress()
	}
}

// InsertAll adds every value in vs.
func (s *KLL) InsertAll(vs []float64) {
	for _, v := range vs {
		s.Insert(v)
	}
}

// compress walks levels bottom-up, compacting any that exceed capacity.
func (s *KLL) compress() {
	for level := 0; level < len(s.levels); level++ {
		if len(s.levels[level]) < s.capacityAt(level, len(s.levels)) {
			continue
		}
		buf := s.levels[level]
		sort.Float64s(buf)
		if level+1 >= len(s.levels) {
			s.levels = append(s.levels, make([]float64, 0, s.k))
		}
		// Promote every other item, with a random starting offset so the
		// rank error is unbiased.
		offset := s.rng.Intn(2)
		for i := offset; i < len(buf); i += 2 {
			s.levels[level+1] = append(s.levels[level+1], buf[i])
		}
		s.levels[level] = s.levels[level][:0]
	}
}

// Query returns an approximation of the phi-quantile. Query(0) and
// Query(1) return the exact minimum and maximum.
func (s *KLL) Query(phi float64) (float64, error) {
	if phi < 0 || phi > 1 {
		return 0, fmt.Errorf("quantile: phi %v out of [0,1]", phi)
	}
	if s.n == 0 {
		return 0, errors.New("quantile: empty sketch")
	}
	if phi == 0 {
		return s.min, nil
	}
	if phi >= 1 { // validated phi <= 1 above; exact top rank
		return s.max, nil
	}
	type wv struct {
		v float64
		w int64
	}
	items := make([]wv, 0, s.Retained())
	for level, l := range s.levels {
		w := int64(1) << uint(level)
		for _, v := range l {
			items = append(items, wv{v, w})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	target := phi * float64(s.n)
	var cum float64
	for _, it := range items {
		cum += float64(it.w)
		if cum >= target {
			return it.v, nil
		}
	}
	return s.max, nil
}

// Splits returns q+1 split points dividing the stream into q
// equal-population buckets, mirroring GK.Splits.
func (s *KLL) Splits(q int) ([]float64, error) { return splits(s, q) }

// Sketch is the interface both quantile sketch implementations satisfy, so
// a caller that draws splits from a sketch takes either. The codec draws
// none: its pane builder (quantizer.BuildQuantileInto) sorts the pane.
type Sketch interface {
	Insert(v float64)
	InsertAll(vs []float64)
	Query(phi float64) (float64, error)
	Splits(q int) ([]float64, error)
}

var (
	_ Sketch = (*GK)(nil)
	_ Sketch = (*KLL)(nil)
)
