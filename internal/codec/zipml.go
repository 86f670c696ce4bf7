package codec

import (
	"fmt"

	"sketchml/internal/bitpack"
	"sketchml/internal/gradient"
	"sketchml/internal/quantizer"
)

// ZipML is the uniform fixed-point quantification baseline (Zhang et al.,
// "ZipML"). Values are linearly mapped onto 2^Bits equal-width levels over
// the observed [min, max] range and transmitted as packed integers; keys
// are NOT compressed (the paper's stated limitation of ZipML for sparse
// gradients).
//
// The paper runs ZipML at 16 bits by default because 8-bit ZipML converges
// badly (Section 4.1, Table 4); both widths are supported here.
type ZipML struct {
	// Bits per quantized value; 8 or 16. Zero defaults to 16.
	Bits int
}

func (c *ZipML) bits() int {
	if c.Bits == 0 {
		return 16
	}
	return c.Bits
}

// Name implements Codec.
func (c *ZipML) Name() string { return fmt.Sprintf("ZipML-%dbit", c.bits()) }

// Encode implements Codec.
//
// Layout: tag | bits u8 | flags(bit0=wideKeys) | dim u64 | count u32 |
// min f64 | max f64 | keys fixed-width | packed level indexes.
func (c *ZipML) Encode(g *gradient.Sparse) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	bits := c.bits()
	if bits != 8 && bits != 16 {
		return nil, fmt.Errorf("codec: ZipML bits must be 8 or 16, got %d", bits)
	}
	wide := wideKeys(g.Dim)
	var flags byte
	if wide {
		flags |= 1
	}
	out := []byte{tagZipML, byte(bits), flags}
	out = appendU64(out, g.Dim)
	out = appendU32(out, uint32(len(g.Keys)))

	var u *quantizer.Uniform
	if len(g.Values) > 0 {
		var err error
		u, err = quantizer.BuildUniform(g.Values, 1<<bits)
		if err != nil {
			return nil, err
		}
	}
	var lo, hi float64
	if u != nil {
		lo, hi = u.Range()
	}
	out = appendF64(out, lo)
	out = appendF64(out, hi)

	out = appendFixedKeys(out, g.Keys, wide)
	if u != nil {
		idx := make([]uint32, len(g.Values))
		for i, v := range g.Values {
			idx[i] = uint32(u.Bucket(v))
		}
		out = bitpack.AppendPacked(out, idx, bits)
	}
	return out, nil
}

// Decode implements Codec.
func (c *ZipML) Decode(data []byte) (*gradient.Sparse, error) {
	r := &reader{data: data}
	if err := checkTag(r, tagZipML); err != nil {
		return nil, err
	}
	bitsByte, err := r.u8()
	if err != nil {
		return nil, err
	}
	bits := int(bitsByte)
	if bits != 8 && bits != 16 {
		return nil, fmt.Errorf("codec: bad ZipML bits %d", bits)
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	wide := flags&1 != 0
	dim, err := r.u64()
	if err != nil {
		return nil, err
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	lo, err := r.f64()
	if err != nil {
		return nil, err
	}
	hi, err := r.f64()
	if err != nil {
		return nil, err
	}
	if int64(r.remain()) < int64(count)*int64(keyBytes(wide))+int64(bitpack.PackedSize(int(count), bits)) {
		return nil, errTruncated
	}
	g := gradient.NewSparse(dim, int(count))
	g.Keys = g.Keys[:count]
	if err := readFixedKeys(r, g.Keys, wide); err != nil {
		return nil, fmt.Errorf("codec: corrupt ZipML message: %w", err)
	}
	if count > 0 {
		u, err := quantizer.NewUniform(lo, hi, 1<<bits)
		if err != nil {
			return nil, fmt.Errorf("codec: corrupt ZipML range: %w", err)
		}
		idx, used, err := bitpack.DecodePackedInto(r.rest(), int(count), bits, nil)
		if err != nil {
			return nil, err
		}
		if err := r.advance(used); err != nil {
			return nil, err
		}
		for _, id := range idx {
			g.Values = append(g.Values, u.Mean(int(id)))
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("codec: corrupt ZipML message: %w", err)
	}
	return g, nil
}

// Analyze implements Analyzer.
func (c *ZipML) Analyze(g *gradient.Sparse) (Breakdown, error) {
	if err := g.Validate(); err != nil {
		return Breakdown{}, err
	}
	return Breakdown{
		Header: 15,
		Meta:   16, // min/max
		Keys:   keyBytes(wideKeys(g.Dim)) * g.NNZ(),
		Values: bitpack.PackedSize(g.NNZ(), c.bits()),
	}, nil
}
