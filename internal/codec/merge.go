package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"sketchml/internal/bitpack"
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
// structurally decoded inputs and the accumulator that sums them. Pooled so
// warm MergeInto calls allocate nothing on either path under the default
// split finder (re-quantizing through GKAlgo or KLLAlgo builds a fresh
// sketch).
type mergeScratch struct {
	ga, gb  gradient.Sparse
	acc     gradient.Accumulator
	dist    []float64         // sorted-distinct means working buffer
	buckets quantizer.Buckets // re-quantized pane
}

var mergeScratchPool = sync.Pool{New: func() any { return new(mergeScratch) }}

func getMergeScratch() *mergeScratch   { return mergeScratchPool.Get().(*mergeScratch) }
func putMergeScratch(ms *mergeScratch) { mergeScratchPool.Put(ms) }

// sum returns the key-union sum of the two decoded inputs, through the
// accumulator the driver sums a gather with. It drops exact-zero sums, +0
// and -0 alike, so the output bytes cannot depend on input order. Any
// non-finite sum is an error: a merge must never emit a message that
// decodes to garbage. The result is ms's storage, valid until ms is reused.
func (ms *mergeScratch) sum() (*gradient.Sparse, error) {
	a, b := &ms.ga, &ms.gb
	if a.Dim != b.Dim {
		return nil, fmt.Errorf("codec: merge dimension mismatch: %d vs %d", a.Dim, b.Dim)
	}
	ms.acc.Reset(a.Dim)
	// Neither Add can fail: both inputs have the accumulator's dimension.
	_ = ms.acc.Add(a, 1)
	_ = ms.acc.Add(b, 1)
	sum := ms.acc.Sum()
	for i, v := range sum.Values {
		if !gradient.Finite(v) {
			return nil, fmt.Errorf("codec: merge produced non-finite value at key %d", sum.Keys[i])
		}
	}
	if uint64(len(sum.Keys)) > math.MaxUint32 {
		return nil, fmt.Errorf("codec: merged key count %d overflows the wire header", len(sum.Keys))
	}
	return sum, nil
}

// mergeMeansCapOverride, when positive, replaces the pane's quantile budget
// as the exact-means ceiling in SketchML merges. Test hook only: raising it
// forces the lossless (and bitwise-associative) path on panes that would
// otherwise re-quantize.
var mergeMeansCapOverride int

// MergeInto implements Merger for SketchML messages. Both inputs are
// structurally decoded into pooled scratch (each key mapped to its pane's
// bucket mean — no dense O(D) materialization), the key-union sum is taken
// exactly in float64, and the result is re-emitted:
//
//   - If both inputs carry quantized panes, the output is quantized too.
//     When a pane's distinct summed values fit within the pane's quantile
//     budget (Encode's rule: min(Options.Buckets, len/16), at least 2) the
//     means table is exactly those sorted values — lossless, and bitwise
//     associative because every value survives verbatim. Past that cap the
//     pane is re-quantized through the configured quantile sketch, which
//     re-buckets values (rank-error bounded, like Encode) and therefore
//     only commutes, not associates, on wire bytes. Tying the cap to the
//     quantile budget keeps a merged message the same size as an encoded
//     one — the point of merging — instead of carrying an 8-byte mean per
//     distinct sum.
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
	aFlags, bFlags := a[1], b[1]
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
	dim := sum.Dim
	quant := aFlags&smFlagQuantize != 0 && bFlags&smFlagQuantize != 0
	wide := wideKeys(dim)
	var flags byte
	if c.opts.DeltaKeys {
		flags |= smFlagDeltaKeys
	}
	if quant {
		flags |= smFlagQuantize
	}
	if wide {
		flags |= smFlagWideKeys
	}
	out := append(dst[:0], tagSketchML, flags)
	out = appendU64(out, dim)
	out = appendU32(out, uint32(len(sum.Keys)))
	out = appendU64(out, seed)

	if !quant {
		out, err = c.appendKeys(out, sum.Keys, wide)
		if err != nil {
			return nil, err
		}
		for _, v := range sum.Values {
			out = appendF64(out, v)
		}
		return out, nil
	}

	out = appendU32(out, uint32(c.opts.Buckets))
	// Partition into sign panes exactly like encode: positive pane first,
	// negative magnitudes second, both in ascending key order over shared
	// pooled backing.
	n := len(sum.Values)
	npos := 0
	for _, v := range sum.Values {
		if v >= 0 {
			npos++
		}
	}
	kbuf, vbuf := getU64(n), getF64(n)
	posKeys, negKeys := (*kbuf)[0:0:npos], (*kbuf)[npos:npos]
	posVals, negMags := (*vbuf)[0:0:npos], (*vbuf)[npos:npos]
	for i, v := range sum.Values {
		if v >= 0 {
			posKeys = append(posKeys, sum.Keys[i])
			posVals = append(posVals, v)
		} else {
			negKeys = append(negKeys, sum.Keys[i])
			negMags = append(negMags, -v)
		}
	}
	defer putU64(kbuf)
	defer putF64(vbuf)

	paneKeys := [2][]uint64{posKeys, negKeys}
	paneVals := [2][]float64{posVals, negMags}
	for p := 0; p < 2; p++ {
		out, err = c.mergePane(out, ms, paneKeys[p], paneVals[p], wide)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mergePane emits one sign pane of a merged message using the explicit
// index layout (MinMax off). vals are magnitudes for the negative pane.
func (c *SketchML) mergePane(out []byte, ms *mergeScratch, keys []uint64, vals []float64, wide bool) ([]byte, error) {
	out = appendU32(out, uint32(len(keys)))
	if len(keys) == 0 {
		return out, nil
	}
	// Sorted-distinct candidate means table. Dropping exact-zero sums in
	// mergeScratch.sum guarantees every entry is strictly positive here
	// (negative pane values arrive as magnitudes), so no ±0 ordering
	// ambiguity.
	dist := append(ms.dist[:0], vals...)
	sort.Float64s(dist)
	d := dist[:1]
	for _, v := range dist[1:] {
		if v != d[len(d)-1] { //lint:allow float-equality exact dedup of identical sums; near-equal values must stay distinct means
			d = append(d, v)
		}
	}
	ms.dist = dist

	// The pane's quantile budget, by Encode's rule. It doubles as the
	// exact-means ceiling so a merged pane never spends more header bytes
	// on means than an encoded pane would.
	qEff := c.opts.Buckets
	if cap := len(keys) / 16; cap < qEff {
		qEff = cap
	}
	if qEff < 2 {
		qEff = 2
	}
	exactCap := qEff
	if mergeMeansCapOverride > 0 {
		exactCap = mergeMeansCapOverride
	}

	var means []float64
	var idx []uint32
	if len(d) <= exactCap {
		means = d // lossless: every summed value survives verbatim
		idxBuf := getU32(len(keys))
		defer putU32(idxBuf)
		idx = *idxBuf
		for i, v := range vals {
			idx[i] = uint32(sort.SearchFloat64s(means, v))
		}
	} else {
		// Too many distinct values to carry exactly: re-bucket through the
		// same quantile construction Encode uses.
		if err := quantizer.BuildQuantileAlgoInto(&ms.buckets, vals, qEff, c.opts.SketchSize, c.opts.Algo, int64(c.opts.Seed)); err != nil {
			return nil, err
		}
		means, idx = ms.buckets.Means(), ms.buckets.Index
	}
	out = appendU32(out, uint32(len(means)))
	for _, m := range means {
		out = appendF64(out, m)
	}
	out, err := c.appendKeys(out, keys, wide)
	if err != nil {
		return nil, err
	}
	return bitpack.AppendBlock(out, idx, bitpack.BitsFor(len(means))), nil
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
