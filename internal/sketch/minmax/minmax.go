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

// InsertBlock is Insert for a whole key list, one hash row at a time:
// every bin keys[i] addresses keeps the minimum of its content and idx[i].
// A row's seed, width and cells are fixed for the pass, as in QueryBlock.
// Min is order-free, so the cells end up as key-by-key Insert leaves them.
// idx must be at least as long as keys.
func (s *Sketch) InsertBlock(keys []uint64, idx []uint16) {
	idx = idx[:len(keys)]
	var top uint16
	for _, v := range idx {
		top = max(top, v)
	}
	if top > MaxIndex {
		invariant.Failf("minmax: index %d exceeds MaxIndex", top)
	}
	for r := 0; r < s.rows; r++ {
		seed, cols := s.family.Row(r)
		cells := s.cells[r*s.cols : (r+1)*s.cols]
		for i, k := range keys {
			cell := &cells[hashing.Reduce(hashing.Mix64(k, seed), cols)]
			*cell = min(*cell, idx[i])
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

// cellWidth returns the serialized bytes per bin for a given maximum index.
func cellWidth(maxIdx int) int {
	if maxIdx < 0xFF { // 0xFF reserved as the 1-byte Empty sentinel
		return 1
	}
	return 2
}

// AppendBinary serializes the sketch, packing each bin into the fewest
// bytes that can hold indexes up to maxIdx (the paper's
// s×t×⌈log2(q)/8⌉-byte cost). maxIdx must cover every stored index.
func (s *Sketch) AppendBinary(dst []byte, maxIdx int) ([]byte, error) {
	if maxIdx < 0 || maxIdx > MaxIndex {
		return nil, fmt.Errorf("minmax: maxIdx %d out of range", maxIdx)
	}
	w := cellWidth(maxIdx)
	var hdr [13]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(s.rows))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(s.cols))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(maxIdx))
	hdr[12] = byte(w)
	dst = append(dst, hdr[:]...)
	for _, c := range s.cells {
		switch w {
		case 1:
			if c == Empty {
				dst = append(dst, 0xFF)
			} else if int(c) > maxIdx {
				return nil, fmt.Errorf("minmax: stored index %d exceeds declared max %d", c, maxIdx)
			} else {
				dst = append(dst, byte(c))
			}
		default:
			if c != Empty && int(c) > maxIdx {
				return nil, fmt.Errorf("minmax: stored index %d exceeds declared max %d", c, maxIdx)
			}
			dst = binary.LittleEndian.AppendUint16(dst, c)
		}
	}
	return dst, nil
}

// DecodeBinaryReuse parses a sketch serialized by AppendBinary, re-deriving
// the hash family from seed (the seed is agreed out of band by the codec
// and is not part of the wire format). It returns the decoded sketch and
// the number of bytes consumed. When s is non-nil it is reshaped in place
// and returned, reusing its cell storage and hash family, so steady-state
// decoding allocates nothing once the sketch capacity matches the wire
// shape; a nil s allocates a fresh sketch.
func DecodeBinaryReuse(data []byte, seed uint64, s *Sketch) (*Sketch, int, error) {
	if len(data) < 13 {
		return nil, 0, errors.New("minmax: truncated header")
	}
	rows := int(binary.LittleEndian.Uint32(data[0:]))
	cols := int(binary.LittleEndian.Uint32(data[4:]))
	w := int(data[12])
	if rows <= 0 || cols <= 0 || rows > 1<<16 || cols > 1<<30 {
		return nil, 0, fmt.Errorf("minmax: implausible dimensions %dx%d", rows, cols)
	}
	if w != 1 && w != 2 {
		return nil, 0, fmt.Errorf("minmax: bad cell width %d", w)
	}
	need := 13 + rows*cols*w
	if len(data) < need {
		return nil, 0, fmt.Errorf("minmax: need %d bytes, have %d", need, len(data))
	}
	if s == nil {
		s = &Sketch{}
	}
	s.Reshape(rows, cols, seed)
	body := data[13:need]
	for i := range s.cells {
		if w == 1 {
			b := body[i]
			if b == 0xFF {
				s.cells[i] = Empty
			} else {
				s.cells[i] = uint16(b)
			}
		} else {
			s.cells[i] = binary.LittleEndian.Uint16(body[i*2:])
		}
	}
	return s, need, nil
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
	rowTab          []groupRow // QueryEach's per-row table of the groups
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

// InsertBlock runs Sketch.InsertBlock on group grp's sketch with
// group-relative indexes, for a caller that has routed every key itself (an
// encoder resolves bucket → (grp, rel) once per bucket, not once per key).
// Insert(key, b) is InsertBlock(GroupOf(b), {key}, {b − GroupOf(b)·
// BucketsPerGroup()}).
func (g *Grouped) InsertBlock(grp int, keys []uint64, rel []uint16) {
	g.groups[grp].InsertBlock(keys, rel)
}

// Query recovers the bucket index of key, which is known (from the group
// number the wire carries beside it) to live in group grp. It is QueryBlock
// on one key.
func (g *Grouped) Query(grp int, key uint64) (bucket int, ok bool) {
	var cand [1]uint16
	base := g.QueryBlock(grp, []uint64{key}, cand[:])
	if cand[0] == 0 {
		return 0, false
	}
	return min(base+int(cand[0])-1, g.numBuckets-1), true
}

// QueryBlock queries group grp's sketch for a whole key list (see
// Sketch.QueryBlock for cand) and returns the group's first bucket: the
// bucket of keys[i] is min(base+cand[i]-1, NumBuckets()-1), and cand[i] == 0
// means the sketch holds nothing for it — as it does for every key of a
// group that does not exist.
func (g *Grouped) QueryBlock(grp int, keys []uint64, cand []uint16) (base int) {
	if grp < 0 || grp >= len(g.groups) {
		clear(cand[:len(keys)])
		return 0
	}
	g.groups[grp].QueryBlock(keys, cand)
	return grp * g.bucketsPerGroup
}

// QueryEach is QueryBlock for a key list whose keys belong to different
// groups: grp[i] names keys[i]'s group, and cand[i] becomes what that
// group's sketch gives keys[i] (see Sketch.QueryBlock) — 0 for a group that
// does not exist. The bucket of keys[i] is min(grp[i]·BucketsPerGroup() +
// cand[i] − 1, NumBuckets() − 1). The groups must share one shape, as
// Reshape and DecodeGroupedPackedReuse build them; grp and cand must be at
// least as long as keys.
//
// It runs a pass per hash row, as QueryBlock does, through a table of each
// group's seed and cells for that row, so a key costs one more load than it
// does in QueryBlock.
func (g *Grouped) QueryEach(keys []uint64, grp []uint32, cand []uint16) {
	grp, cand = grp[:len(keys)], cand[:len(keys)]
	clear(cand)
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
	w := uint64(cols)
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

// groupRow is one group's hash seed and cells for one row, QueryEach's
// table entry.
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

// AppendBinary serializes every group sketch, each with its own header and
// its cells in whole bytes: the layout of SketchML messages with
// delta-binary keys, which the codec still decodes (DecodeGroupedReuse).
// AppendPacked is the layout it writes.
func (g *Grouped) AppendBinary(dst []byte) ([]byte, error) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(g.groups)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(g.numBuckets))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(g.bucketsPerGroup))
	dst = append(dst, hdr[:]...)
	var err error
	for _, s := range g.groups {
		dst, err = s.AppendBinary(dst, g.bucketsPerGroup-1)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeGroupedReuse parses a Grouped serialized by AppendBinary. Group
// seeds are re-derived from seed exactly as NewGrouped does. When g is
// non-nil it is rebuilt in place and returned, reusing its group slice and
// every group sketch's storage, so steady-state decoding allocates nothing
// once capacities match the wire shape; a nil g allocates fresh.
func DecodeGroupedReuse(data []byte, seed uint64, g *Grouped) (*Grouped, int, error) {
	if len(data) < 12 {
		return nil, 0, errors.New("minmax: truncated grouped header")
	}
	n := int(binary.LittleEndian.Uint32(data[0:]))
	numBuckets := int(binary.LittleEndian.Uint32(data[4:]))
	bpg := int(binary.LittleEndian.Uint32(data[8:]))
	if n <= 0 || n > 1<<16 || numBuckets <= 0 || bpg <= 0 {
		return nil, 0, fmt.Errorf("minmax: implausible grouped header n=%d q=%d bpg=%d", n, numBuckets, bpg)
	}
	if g == nil {
		g = &Grouped{}
	}
	g.resizeGroups(n)
	g.numBuckets = numBuckets
	g.bucketsPerGroup = bpg
	off := 12
	for i := 0; i < n; i++ {
		s, used, err := DecodeBinaryReuse(data[off:], hashing.Mix64(uint64(i), seed), g.groups[i])
		if err != nil {
			return nil, 0, fmt.Errorf("minmax: group %d: %w", i, err)
		}
		g.groups[i] = s
		off += used
	}
	return g, off, nil
}
