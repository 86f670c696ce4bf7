package codec

import (
	"math"
	"runtime"
	"sync"

	"sketchml/internal/gradient"
	"sketchml/internal/quantizer"
	"sketchml/internal/sketch/minmax"
)

// This file holds the concurrency and buffer-reuse machinery behind the
// SketchML codec hot path. The paper's economics (Section 4.3, Figure 8c)
// only work while compression CPU stays far below the communication time it
// saves, so the codec must exploit cores and avoid allocator churn:
//
//   - Encode runs its two sign panes concurrently (pane 1 on a goroutine,
//     pane 0 inline) when concurrentPanes says so. Decode has no fan-out of
//     its own: every decode in a training round already runs beside its
//     siblings (the gather goroutines, the replicas decoding one
//     broadcast), so nesting a second level only oversubscribes.
//   - The sync.Pool families recycle the per-message scratch (pane output
//     buffers, the encoder's per-pane keys and magnitudes, quantizer,
//     sort scratch and grouped sketch, the decoder's flat stores) that
//     would otherwise be reallocated on every call.
//
// Wire bytes are bit-identical at every parallelism level: panes are
// independent and spliced in paneID order, each pane's keys go into their
// group sketches in key order under an order-free min, and nothing on the
// encode path depends on goroutine interleaving.

// concurrentPanes resolves Options.Parallelism for Encode: 0 means
// concurrent panes iff more than one CPU is available, 1 pins the serial
// plan, 2 or more always fans out.
func (c *SketchML) concurrentPanes() bool {
	if p := c.opts.Parallelism; p > 0 {
		return p > 1
	}
	return runtime.GOMAXPROCS(0) > 1
}

// ---- scratch pools ----
//
// The pools hold pointers (not slices or values) so Put does not allocate a
// fresh interface box per cycle. Pooled memory is never handed to the
// caller of Encode/Decode/MergeInto — decoded gradients and encoded
// messages own their backing arrays outright.

// bytePool holds the pane output buffers Encode assembles a message from.
var bytePool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBytes() *[]byte {
	b := bytePool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putBytes(b *[]byte) { bytePool.Put(b) }

// ---- encode scratch ----

// encodeScratch is the reusable per-pane state behind Encode: the pane's
// entries, its quantizer with its bucket indexes and sort scratch, one
// grouped sketch rebuilt in place, the bucket → group table, and each key's
// group and group-relative index. Each pane borrows its own, so the two
// panes can encode concurrently. Pooled so that, once capacities warm up,
// the returned message is the only thing Encode allocates.
type encodeScratch struct {
	keys    []uint64  // the pane's keys, ascending
	vals    []float64 // and magnitudes
	buckets quantizer.Buckets
	grouped minmax.Grouped
	route   []uint32 // per bucket: group<<16 | group-relative index
	gids    []uint32 // per pane key, in key order: its group
	rels    []uint16 // and its group-relative index
	tallies []int64  // per-bucket counts for the bucket-index histogram
}

var encodeScratchPool = sync.Pool{New: func() any { return new(encodeScratch) }}

// getEncodeScratch returns pooled encode scratch; putEncodeScratch recycles
// it. The scratch never escapes encodePane — its bytes are copied into the
// message.
func getEncodeScratch() *encodeScratch { return encodeScratchPool.Get().(*encodeScratch) }

func putEncodeScratch(es *encodeScratch) { encodeScratchPool.Put(es) }

// takePane copies the entries of g that belong to pane paneID (0: value
// ≥ 0, −0 included; 1: value < 0, as magnitudes) into the scratch, in key
// order. Every entry is written to the next free slot and the slot is kept
// only if the entry belongs — no branch on the sign, which in a gradient
// is a coin flip the predictor loses half the time.
func (es *encodeScratch) takePane(g *gradient.Sparse, paneID uint64) ([]uint64, []float64) {
	n := len(g.Values)
	es.keys, es.vals = quantizer.Resize(es.keys, n), quantizer.Resize(es.vals, n)
	keys, vals, src := es.keys, es.vals, g.Keys[:n]
	j := 0
	for i, v := range g.Values {
		keys[j] = src[i]
		vals[j] = math.Float64frombits(math.Float64bits(v) ^ paneID<<63)
		var negative uint64
		if v < 0 {
			negative = 1
		}
		j += int(1 ^ negative ^ paneID)
	}
	return keys[:j], vals[:j]
}

// ---- decode scratch ----

// decodeScratch is the reusable per-call state behind DecodeInto. The flat
// key and value stores have the header count's length, and each pane's key
// list is the next window of both, so no list is a slice of its own and a
// message cannot make the decoder hold more than 5/4 of the count it
// announced (quantizer.Resize's headroom), a count decodeInto has already
// bounded by the message's length. Beside them: a means table, a bitpack
// index buffer (the pane's indexes or its keys' group numbers), one grouped
// sketch rebuilt in place per pane with the query's candidates, and the
// rank scatter's table (one uint64 per 32 keys of [0, Dim), Dim/4 bytes,
// only ever sized for a message of at least Dim/128 entries) that puts the
// panes in key order when the merge does not. Pooled so steady-state
// decodes allocate nothing once capacities warm up.
type decodeScratch struct {
	means     []float64
	nonFinite bool // some mean is NaN or ±Inf: the decoded values need checking
	keys      []uint64
	vals      []float64
	used      int // entries decoded so far
	idx       []uint32
	grouped   *minmax.Grouped
	cand      []uint16 // query candidates of the pane being decoded
	ranks     []uint64 // rank scatter: per 32 keys, bitmap | keys below << 32
}

var decodeScratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// getScratch returns pooled decode scratch; putScratch recycles it. The
// scratch never escapes DecodeInto — decoded gradients own their backing
// arrays outright.
func getScratch() *decodeScratch { return decodeScratchPool.Get().(*decodeScratch) }

func putScratch(sc *decodeScratch) { decodeScratchPool.Put(sc) }

// reset prepares the scratch for a message of total entries. The caller has
// already bounds-checked total against the message length.
func (sc *decodeScratch) reset(total int) {
	sc.keys = quantizer.Resize(sc.keys, total)
	sc.vals = quantizer.Resize(sc.vals, total)
	sc.used = 0
	sc.nonFinite = false
}

// decodeList reads the next key list (see decodeKeysInto) into the flat key
// store and returns it with the window of the value store beside it, for
// the caller to fill. A list that runs past the header's count is an error.
func (sc *decodeScratch) decodeList(r *reader) ([]uint64, []float64, error) {
	keys, err := decodeKeysInto(r, sc.keys[sc.used:sc.used:len(sc.keys)])
	if err != nil {
		return nil, nil, err
	}
	vals := sc.vals[sc.used : sc.used+len(keys)]
	sc.used += len(keys)
	return keys, vals, nil
}
