// Package minmax implements MinMaxSketch, the new sketch algorithm proposed
// by SketchML (Section 3.3) for compressing the bucket indexes produced by
// quantile-bucket quantification.
//
// A MinMaxSketch looks like a Count-Min sketch — s hash tables of t bins —
// but resolves hash collisions entirely differently. Frequency sketches add
// on insert and take the minimum on query, which can only overestimate;
// overestimated bucket indexes decode to amplified gradients and make SGD
// diverge. MinMaxSketch instead stores values:
//
//   - Insert keeps the MINIMUM bucket index ever hashed into a bin, so a
//     collision can only decay the stored index (Theorem A.4: each bin holds
//     exactly the minimum index among the keys that map to it).
//   - Query returns the MAXIMUM candidate across the s rows, the one closest
//     to the original value given that every candidate is an underestimate.
//
// The result is one-sided, bounded error: queried indexes never exceed the
// inserted index, so decoded gradients shrink but never grow or flip
// direction (sign reversal is prevented separately by the codec's
// positive/negative separation). The Grouped variant divides the q buckets
// into r groups with an independent sketch per group, reducing the maximal
// index error from q to q/r (Section 3.3, Solution 2).
package minmax

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"sketchml/internal/bitpack"
	"sketchml/internal/hashing"
	"sketchml/internal/invariant"
	"sketchml/internal/quantizer"
)

// Empty marks a bin that has never been written.
const Empty = math.MaxUint16

// MaxIndex is the largest storable bucket index.
const MaxIndex = math.MaxUint16 - 1

// Sketch is a single MinMaxSketch of rows hash tables with cols bins each.
type Sketch struct {
	rows, cols int
	cells      []uint16 // row-major; Empty means untouched
	family     *hashing.Family
}

// New creates a MinMaxSketch with the given shape. All bins start Empty.
func New(rows, cols int, seed uint64) *Sketch {
	s := &Sketch{}
	s.Reshape(rows, cols, seed)
	return s
}

// Reshape reconfigures the sketch in place to rows × cols bins under seed,
// emptying every bin. Cell storage and the hash family are reused whenever
// capacity allows, so a decoder that rebuilds a sketch per message does not
// allocate once warm.
func (s *Sketch) Reshape(rows, cols int, seed uint64) {
	if rows <= 0 || cols <= 0 {
		invariant.Failf("minmax: invalid dimensions %dx%d", rows, cols)
	}
	n := rows * cols
	if cap(s.cells) >= n {
		s.cells = s.cells[:n]
	} else {
		s.cells = make([]uint16, n)
	}
	if s.family != nil {
		s.family.Reshape(rows, cols, seed)
	} else {
		s.family = hashing.NewFamily(rows, cols, seed)
	}
	s.rows, s.cols = rows, cols
	for i := range s.cells {
		s.cells[i] = Empty
	}
}

// Insert records (key, idx): in every row, the addressed bin keeps the
// minimum of its current content and idx (the paper's Min protocol).
func (s *Sketch) Insert(key uint64, idx uint16) {
	if idx > MaxIndex {
		invariant.Failf("minmax: index %d exceeds MaxIndex", idx)
	}
	for r := 0; r < s.rows; r++ {
		cell := &s.cells[r*s.cols+s.family.Index(r, key)]
		if idx < *cell {
			*cell = idx
		}
	}
}

// Query returns the recovered bucket index for key: the maximum non-empty
// candidate across rows (the paper's Max protocol). ok is false only when
// every addressed bin is still Empty, which cannot happen for a key that
// was inserted.
//
// For an inserted key the result never exceeds the inserted index
// (one-sided underestimation). Query is QueryBlock on one key.
func (s *Sketch) Query(key uint64) (idx uint16, ok bool) {
	var cand [1]uint16
	s.QueryBlock([]uint64{key}, cand[:])
	return cand[0] - 1, cand[0] != 0
}

// QueryBlock runs the Max protocol for a whole key list, one hash row at a
// time: cand[i] becomes one more than the index recovered for keys[i], and
// stays 0 when every bin keys[i] addresses is Empty (Empty + 1 wraps to 0,
// so an untouched bin never wins the maximum). A row's seed, width and cells
// are fixed for the pass, which leaves one hash and one table read per key —
// Section 3.3's query cost. cand must be at least as long as keys.
func (s *Sketch) QueryBlock(keys []uint64, cand []uint16) {
	cand = cand[:len(keys)]
	clear(cand)
	for r := 0; r < s.rows; r++ {
		seed, cols := s.family.Row(r)
		cells := s.cells[r*s.cols : (r+1)*s.cols]
		for i, k := range keys {
			cand[i] = max(cand[i], cells[hashing.Reduce(hashing.Mix64(k, seed), cols)]+1)
		}
	}
}

// Grouped divides numBuckets bucket indexes into numGroups contiguous
// groups — [0, q/r), [q/r, 2q/r), … — with an independent MinMaxSketch per
// group storing group-relative indexes. This caps the worst-case decoded
// index error at q/r instead of q (Section 3.3, "Grouped MinMaxSketch").
//
// The caller is responsible for remembering which group each key went to
// (SketchML transmits a group number beside every key, see internal/codec).
type Grouped struct {
	groups          []*Sketch
	numBuckets      int
	bucketsPerGroup int
	wire            []uint32   // AppendPacked's and DecodeGroupedPackedReuse's cells as bitpack values
	rowTab          []groupRow // InsertEach's and QueryEach's per-row table of the groups
}

// NewGrouped creates numGroups sketches of rows × ceil(totalCols/numGroups)
// bins each, covering bucket indexes [0, numBuckets).
func NewGrouped(rows, totalCols, numBuckets, numGroups int, seed uint64) *Grouped {
	g := &Grouped{}
	g.Reshape(rows, totalCols, numBuckets, numGroups, seed)
	return g
}

// Reshape rebuilds g in place to the shape NewGrouped would give it, every
// bin Empty, reusing the group slice and each group sketch's storage, so an
// encoder that builds a grouped sketch per pane does not allocate once warm.
func (g *Grouped) Reshape(rows, totalCols, numBuckets, numGroups int, seed uint64) {
	if numGroups <= 0 || numBuckets <= 0 {
		invariant.Failf("minmax: invalid buckets=%d groups=%d", numBuckets, numGroups)
	}
	if numGroups > numBuckets {
		numGroups = numBuckets
	}
	colsPer := (totalCols + numGroups - 1) / numGroups
	if colsPer < 1 {
		colsPer = 1
	}
	g.resizeGroups(numGroups)
	g.numBuckets = numBuckets
	g.bucketsPerGroup = (numBuckets + numGroups - 1) / numGroups
	for i, s := range g.groups {
		if s == nil {
			s = &Sketch{}
			g.groups[i] = s
		}
		// Each group gets an independent hash family via a derived seed.
		s.Reshape(rows, colsPer, hashing.Mix64(uint64(i), seed))
	}
}

// resizeGroups sets len(g.groups) to n, keeping the sketches it already
// holds: reslicing up to cap revives pointers parked beyond the previous
// length, so shrink-then-grow cycles keep their storage.
func (g *Grouped) resizeGroups(n int) {
	if cap(g.groups) >= n {
		g.groups = g.groups[:n]
		return
	}
	old := g.groups[:cap(g.groups)]
	g.groups = make([]*Sketch, n)
	copy(g.groups, old)
}

// NumBuckets returns q, the number of bucket indexes the groups cover.
func (g *Grouped) NumBuckets() int { return g.numBuckets }

// NumGroups returns the number of group sketches (the paper's r).
func (g *Grouped) NumGroups() int { return len(g.groups) }

// BucketsPerGroup returns how many bucket indexes map to one group.
func (g *Grouped) BucketsPerGroup() int { return g.bucketsPerGroup }

// GroupOf returns the group that bucket belongs to.
func (g *Grouped) GroupOf(bucket int) int {
	if bucket < 0 || bucket >= g.numBuckets {
		invariant.Failf("minmax: bucket %d out of [0,%d)", bucket, g.numBuckets)
	}
	return bucket / g.bucketsPerGroup
}

// Insert records (key, bucket) into the bucket's group sketch and returns
// the group index the key was routed to.
func (g *Grouped) Insert(key uint64, bucket int) int {
	grp := g.GroupOf(bucket)
	g.groups[grp].Insert(key, uint16(bucket-grp*g.bucketsPerGroup))
	return grp
}

// Query recovers the bucket index of key, which is known (from the group
// number the wire carries beside it) to live in group grp: the group's
// first bucket plus what its sketch gives key, clamped to the last bucket.
// ok is false when the sketch holds nothing for key, as it does for every
// key of a group that does not exist.
func (g *Grouped) Query(grp int, key uint64) (bucket int, ok bool) {
	if grp < 0 || grp >= len(g.groups) {
		return 0, false
	}
	var cand [1]uint16
	g.groups[grp].QueryBlock([]uint64{key}, cand[:])
	if cand[0] == 0 {
		return 0, false
	}
	return min(grp*g.bucketsPerGroup+int(cand[0])-1, g.numBuckets-1), true
}

// InsertEach is Insert for a key list whose keys belong to different groups,
// laid out as QueryEach reads it: grp[i] names keys[i]'s group and rel[i] its
// group-relative index, and in every row the bin keys[i] addresses keeps the
// minimum of its content and rel[i]. Min is order-free, so the cells end up
// as key-by-key Insert leaves them. A group or an index out of range
// anywhere in the list is refused before a cell moves. grp and rel must be
// at least as long as keys.
func (g *Grouped) InsertEach(keys []uint64, grp []uint32, rel []uint16) {
	grp, rel = grp[:len(keys)], rel[:len(keys)]
	var topGrp uint32
	var topRel uint16
	for i := range keys {
		topGrp, topRel = max(topGrp, grp[i]), max(topRel, rel[i])
	}
	if len(keys) > 0 && (int(topGrp) >= len(g.groups) || int(topRel) >= g.bucketsPerGroup || topRel > MaxIndex) {
		invariant.Failf("minmax: group %d or index %d out of %d groups of %d", topGrp, topRel, len(g.groups), g.bucketsPerGroup)
	}
	rows, w := g.rowTable()
	ng := len(g.groups)
	for r := 0; r < rows; r++ {
		tab := g.rowTab[r*ng : (r+1)*ng]
		for i, k := range keys {
			e := &tab[grp[i]]
			cell := &e.cells[hashing.Reduce(hashing.Mix64(k, e.seed), w)]
			*cell = min(*cell, rel[i])
		}
	}
}

// QueryEach runs the Max protocol (see Sketch.QueryBlock) for a key list
// whose keys belong to different groups: grp[i] names keys[i]'s group, and
// cand[i] becomes what that group's sketch gives keys[i] — 0 for a group
// that does not exist. The bucket of keys[i] is min(grp[i]·BucketsPerGroup()
// + cand[i] − 1, NumBuckets() − 1), as Query computes it. grp and cand must
// be at least as long as keys.
func (g *Grouped) QueryEach(keys []uint64, grp []uint32, cand []uint16) {
	grp, cand = grp[:len(keys)], cand[:len(keys)]
	clear(cand)
	rows, w := g.rowTable()
	ng := len(g.groups)
	for r := 0; r < rows; r++ {
		tab := g.rowTab[r*ng : (r+1)*ng]
		for i, k := range keys {
			if int(grp[i]) >= len(tab) {
				continue
			}
			e := &tab[grp[i]]
			cand[i] = max(cand[i], e.cells[hashing.Reduce(hashing.Mix64(k, e.seed), w)]+1)
		}
	}
}

// rowTable fills g.rowTab, InsertEach's and QueryEach's table, with each
// group's hash seed and cells row by row — row r's entries are
// rowTab[r·NumGroups() : (r+1)·NumGroups()] — and returns the rows and
// their width. Both then run a pass per hash row, as Sketch.QueryBlock
// does, so a key costs one more load than it does there. The groups must
// share one shape, as Reshape and DecodeGroupedPackedReuse build them.
func (g *Grouped) rowTable() (rows int, width uint64) {
	ng := len(g.groups)
	rows, cols := g.groups[0].rows, g.groups[0].cols
	g.rowTab = quantizer.Resize(g.rowTab, rows*ng)
	for i, s := range g.groups {
		if s.rows != rows || s.cols != cols {
			invariant.Failf("minmax: group %d is %dx%d, group 0 %dx%d", i, s.rows, s.cols, rows, cols)
		}
		for r := 0; r < rows; r++ {
			seed, _ := s.family.Row(r)
			g.rowTab[r*ng+i] = groupRow{seed, s.cells[r*cols : (r+1)*cols]}
		}
	}
	return rows, uint64(cols)
}

// groupRow is one group's hash seed and cells for one row, rowTable's
// entry.
type groupRow struct {
	seed  uint64
	cells []uint16
}

// packedHeader is AppendPacked's header: groups, q, buckets per group, rows
// and columns, a uint32 each.
const packedHeader = 20

// AppendPacked serializes every group sketch in one bit-packed run:
//
//	u32 groups | u32 q | u32 bucketsPerGroup | u32 rows | u32 cols | cells
//
// The groups share one shape (Reshape builds them so), which the header
// states once. The cells follow group by group, each group's row by row,
// at BitsFor(bucketsPerGroup+1) bits a cell: 0 for Empty, index+1 for a
// stored group-relative index. Every stored index must be below
// BucketsPerGroup().
func (g *Grouped) AppendPacked(dst []byte) ([]byte, error) {
	s0 := g.groups[0]
	var hdr [packedHeader]byte
	for i, v := range [...]int{len(g.groups), g.numBuckets, g.bucketsPerGroup, s0.rows, s0.cols} {
		binary.LittleEndian.PutUint32(hdr[4*i:], uint32(v))
	}
	dst = append(dst, hdr[:]...)
	g.wire = quantizer.Resize(g.wire, len(g.groups)*len(s0.cells))
	wire := g.wire[:0]
	for _, s := range g.groups {
		for _, c := range s.cells {
			if c != Empty && int(c) >= g.bucketsPerGroup {
				return nil, fmt.Errorf("minmax: stored index %d exceeds group size %d", c, g.bucketsPerGroup)
			}
			wire = append(wire, uint32(c+1)) // Empty + 1 wraps to 0
		}
	}
	return bitpack.AppendPacked(dst, wire, bitpack.BitsFor(g.bucketsPerGroup+1)), nil
}

// DecodeGroupedPackedReuse parses a Grouped serialized by AppendPacked,
// re-deriving the group seeds from seed as NewGrouped does. It returns the
// sketch and the bytes consumed. It bounds the header's cell count by the
// bits that remain before it sizes anything, and refuses a cell past the
// group size. When g is non-nil it is rebuilt in place and returned, reusing
// its storage, so steady-state decoding allocates nothing once capacities
// match the wire shape; a nil g allocates fresh.
func DecodeGroupedPackedReuse(data []byte, seed uint64, g *Grouped) (*Grouped, int, error) {
	if len(data) < packedHeader {
		return nil, 0, errors.New("minmax: truncated packed header")
	}
	var h [5]int
	for i := range h {
		h[i] = int(binary.LittleEndian.Uint32(data[4*i:]))
	}
	n, q, bpg, rows, cols := h[0], h[1], h[2], h[3], h[4]
	if n <= 0 || n > 1<<16 || q <= 0 || bpg <= 0 || bpg > MaxIndex+1 ||
		rows <= 0 || rows > 1<<16 || cols <= 0 || cols > 1<<30 {
		return nil, 0, fmt.Errorf("minmax: implausible packed header n=%d q=%d bpg=%d %dx%d", n, q, bpg, rows, cols)
	}
	w := bitpack.BitsFor(bpg + 1)
	per := rows * cols
	if total := int64(n) * int64(per); total > int64(8*(len(data)-packedHeader)/w) {
		return nil, 0, fmt.Errorf("minmax: %d cells of %d bits overrun %d bytes", total, w, len(data)-packedHeader)
	}
	if g == nil {
		g = &Grouped{}
	}
	wire, used, err := bitpack.DecodePackedInto(data[packedHeader:], n*per, w, g.wire)
	if err != nil {
		return nil, 0, err
	}
	g.wire = wire
	g.resizeGroups(n)
	g.numBuckets = q
	g.bucketsPerGroup = bpg
	for i, s := range g.groups {
		if s == nil {
			s = &Sketch{}
			g.groups[i] = s
		}
		s.Reshape(rows, cols, hashing.Mix64(uint64(i), seed))
		for j, v := range wire[i*per : (i+1)*per] {
			if v > uint32(bpg) {
				return nil, 0, fmt.Errorf("minmax: group %d: stored index %d exceeds group size %d", i, v-1, bpg)
			}
			s.cells[j] = uint16(v) - 1 // 0 wraps to Empty
		}
	}
	return g, packedHeader + used, nil
}
