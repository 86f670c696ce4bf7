package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"sketchml/internal/gradient"
	"sketchml/internal/quantizer"
)

// Merger is implemented by codecs whose encoded messages can be combined
// wire-to-wire: MergeInto(dst, a, b) yields one message equivalent to
// encoding the sum of the two gradients, without the caller ever
// materializing floats. This is what makes hierarchical aggregation (the
// tree gather) possible: interior nodes merge children's messages and
// forward one message, so per-link bytes stay flat as the worker count
// grows.
//
// Contract: merging is symmetric in its inputs (merging a with b and b
// with a produce identical bytes) and the result always decodes with the
// same codec. Exact associativity on wire bytes holds only where the
// format guarantees it — see SketchML.MergeInto for the boundary.
type Merger interface {
	// MergeInto appends the merged message to dst[:0] and returns it,
	// reusing dst's capacity. dst may alias a or b: both inputs are fully
	// parsed before the first output byte is written.
	MergeInto(dst []byte, a, b []byte) ([]byte, error)
}

// mergeScratch holds the pooled working state for one merge: the two
// structurally decoded inputs, their sum, and the exact-means path's
// buffers. The pane writer's scratch comes from the encode pool, as it does
// for Encode. Pooled so warm MergeInto calls allocate nothing on either
// path.
type mergeScratch struct {
	ga, gb gradient.Sparse
	gsum   gradient.Sparse // sum's result
	dist   []float64       // the pane's distinct values, sorted once they all fit
	idx    []uint32        // each value's place in dist
	set    []uint64        // open-addressing set of the distinct values' bits
	rank   []uint32        // a set slot's place in dist
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

func getMergeScratch() *mergeScratch   { return mergeScratchPool.Get().(*mergeScratch) }
func putMergeScratch(ms *mergeScratch) { mergeScratchPool.Put(ms) }

// sum returns the key-union sum of the two decoded inputs: one walk of both
// key lists, adding each key's terms, a's before b's, from +0.0 — the bits
// the driver's gradient.Accumulator gives the same two inputs. It drops
// exact-zero sums, +0 and -0 alike, so the output bytes cannot depend on
// input order. The walk needs scratch only as long as the inputs, not a
// Dim-sized one, because Dim comes off the wire. Any non-finite sum is an
// error: a merge must never emit a message that decodes to garbage. The
// result is ms's storage, valid until ms is reused; it is sized once for
// the union's most keys, through quantizer.Resize like the codec's other
// reused scratch.
func (ms *mergeScratch) sum() (*gradient.Sparse, error) {
	a, b := &ms.ga, &ms.gb
	if a.Dim != b.Dim {
		return nil, fmt.Errorf("codec: merge dimension mismatch: %d vs %d", a.Dim, b.Dim)
	}
	most := len(a.Keys) + len(b.Keys)
	keys, vals := quantizer.Resize(ms.gsum.Keys, most), quantizer.Resize(ms.gsum.Values, most)
	n := 0
	i, j := 0, 0
	for i < len(a.Keys) || j < len(b.Keys) {
		var key uint64
		if j == len(b.Keys) || (i < len(a.Keys) && a.Keys[i] <= b.Keys[j]) {
			key = a.Keys[i]
		} else {
			key = b.Keys[j]
		}
		var v float64
		for ; i < len(a.Keys) && a.Keys[i] == key; i++ {
			v += a.Values[i]
		}
		for ; j < len(b.Keys) && b.Keys[j] == key; j++ {
			v += b.Values[j]
		}
		if !gradient.Finite(v) {
			return nil, fmt.Errorf("codec: merge produced non-finite value at key %d", key)
		}
		if v != 0 {
			keys[n], vals[n] = key, v
			n++
		}
	}
	ms.gsum = gradient.Sparse{Dim: a.Dim, Keys: keys[:n], Values: vals[:n]}
	if uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("codec: merged key count %d overflows the wire header", n)
	}
	return &ms.gsum, nil
}

// mergeMeansCapOverride, when positive, replaces the pane's quantile budget
// as the exact-means ceiling in SketchML merges. Test hook only: raising it
// forces the lossless (and bitwise-associative) path on panes that would
// otherwise re-quantize.
var mergeMeansCapOverride int

// exactMeans returns the sorted distinct values of a pane as its means
// table, and each value's index into it, if there are at most q of them
// (mergeMeansCapOverride, when set, replaces q). ok is false past the cap,
// and always on a nil ms: Encode quantizes every pane.
//
// Most merged panes have far more than q distinct sums, so the probe stops
// at the (q+1)-th: it collects distinct values in an open-addressing set
// sized for q+1 of them, and sorts only when all of them fit. A pane over
// budget is read only up to its (q+1)-th distinct value, into O(q) scratch,
// and one that fits costs O(n + q log q); the quantizer sorts an
// overflowing pane itself.
func (ms *mergeScratch) exactMeans(vals []float64, q int) (means []float64, idx []uint32, ok bool) {
	if ms == nil {
		return nil, nil, false
	}
	if mergeMeansCapOverride > 0 {
		q = mergeMeansCapOverride
	}
	// A pane cannot hold more distinct values than entries, so the set
	// never needs room for more than min(q, n)+1 of them; at most half full
	// keeps probe chains short.
	limit := min(q, len(vals))
	width := bits.Len(uint(2*limit + 1)) // 1<<width ≥ 2(limit+1)
	// Sized exactly, not through quantizer.Resize: the tables' size is the
	// probe's O(q) bound, and a table only ever takes power-of-two sizes.
	if cap(ms.set) < 1<<width {
		ms.set, ms.rank = make([]uint64, 1<<width), make([]uint32, 1<<width)
	}
	ms.set, ms.rank = ms.set[:1<<width], ms.rank[:1<<width]
	clear(ms.set)
	set, mask := ms.set, uint64(1)<<width-1
	// Dropping exact-zero sums in mergeScratch.sum guarantees every value
	// is strictly positive here (the negative pane holds magnitudes), so the
	// bits 0 (+0.0) can mark an empty slot, and equal bits mean equal values.
	slot := func(b uint64) uint64 { // b's slot, or the empty one it belongs in
		h := (b * fibHash) >> (64 - width)
		for set[h] != b && set[h] != 0 {
			h = (h + 1) & mask
		}
		return h
	}
	dist := ms.dist[:0]
	for _, v := range vals {
		b := math.Float64bits(v)
		if h := slot(b); set[h] == 0 {
			if len(dist) == limit {
				ms.dist = dist
				return nil, nil, false
			}
			set[h] = b
			dist = append(dist, v)
		}
	}
	ms.dist = dist
	slices.Sort(dist)
	for r, v := range dist {
		ms.rank[slot(math.Float64bits(v))] = uint32(r)
	}
	ms.idx = quantizer.Resize(ms.idx, len(vals))
	for i, v := range vals {
		ms.idx[i] = ms.rank[slot(math.Float64bits(v))]
	}
	return dist, ms.idx, true
}

// fibHash is 2^64 divided by the golden ratio: multiplying by it and keeping
// the top bits spreads float bit patterns that differ only in their low
// mantissa bits across the whole table (Fibonacci hashing).
const fibHash = 0x9E3779B97F4A7C15

// MergeInto implements Merger for SketchML messages. Both inputs are
// structurally decoded into pooled scratch (each key mapped to its pane's
// bucket mean — no dense O(D) materialization), the key-union sum is taken
// exactly in float64, and the result is re-emitted through Encode's own
// header, pane and body writers:
//
//   - If both inputs carry quantized panes, the output is quantized too.
//     When a pane's distinct summed values fit within the pane's quantile
//     budget (Encode's rule, paneBudget) the means table is exactly those
//     sorted values — lossless, and bitwise associative because every
//     value survives verbatim. Past that cap the pane is re-quantized
//     by sorting it, as Encode quantizes it, which re-buckets values and
//     therefore only commutes, not associates, on wire bytes. Tying the
//     cap to the quantile budget keeps a merged message the same size as
//     an encoded one — the point of merging — instead of carrying an
//     8-byte mean per distinct sum.
//   - Otherwise the output is the quantize-off raw-float64 layout.
//
// The MinMax flag is always clear on output: MinMaxSketch panes hash with
// per-message seeds and are not linearly mergeable, so merged messages use
// the explicit bit-packed index layout. The output message seed is the XOR
// of the input seeds (order-independent; the index layout's decoder never
// consults it).
func (c *SketchML) MergeInto(dst []byte, a, b []byte) ([]byte, error) {
	// Everything the emitter needs from the raw inputs is read before the
	// first byte is appended, so dst may alias a or b.
	if len(a) < 22 || len(b) < 22 {
		return nil, errTruncated
	}
	quant := a[1]&smFlagQuantize != 0 && b[1]&smFlagQuantize != 0
	seed := binary.LittleEndian.Uint64(a[14:22]) ^ binary.LittleEndian.Uint64(b[14:22])
	ms := getMergeScratch()
	defer putMergeScratch(ms)
	if err := c.decodeInto(a, &ms.ga); err != nil {
		return nil, fmt.Errorf("codec: merge input a: %w", err)
	}
	if err := c.decodeInto(b, &ms.gb); err != nil {
		return nil, fmt.Errorf("codec: merge input b: %w", err)
	}
	sum, err := ms.sum()
	if err != nil {
		return nil, err
	}
	in := message{g: sum, seed: seed, quant: quant, merge: ms}
	out := c.appendHeader(dst[:0], &in)
	var bd Breakdown
	if !quant {
		return appendUnquantized(out, &bd, sum)
	}
	for paneID := uint64(0); paneID < 2; paneID++ {
		if out, err = c.encodePane(out, &bd, &in, paneID); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MergeInto implements Merger for raw messages: decode both into pooled
// scratch, sum the key union exactly in float64, re-emit. The output is
// float32 only when both inputs are (a float64 input's precision is never
// silently discarded), and is bitwise commutative and associative up to
// float addition order — which for disjoint key sets means exactly.
func (c *Raw) MergeInto(dst []byte, a, b []byte) ([]byte, error) {
	if len(a) < 2 || len(b) < 2 {
		return nil, errTruncated
	}
	f32 := a[1]&1 != 0 && b[1]&1 != 0
	ms := getMergeScratch()
	defer putMergeScratch(ms)
	if err := c.DecodeInto(a, &ms.ga); err != nil {
		return nil, fmt.Errorf("codec: merge input a: %w", err)
	}
	if err := c.DecodeInto(b, &ms.gb); err != nil {
		return nil, fmt.Errorf("codec: merge input b: %w", err)
	}
	sum, err := ms.sum()
	if err != nil {
		return nil, err
	}
	return appendRaw(dst[:0], sum.Dim, sum.Keys, sum.Values, f32), nil
}
