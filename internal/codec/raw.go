package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"sketchml/internal/gradient"
	"sketchml/internal/quantizer"
)

// Raw is the uncompressed baseline: what plain (Adam) distributed SGD sends.
// Keys are fixed-width integers (4 bytes when the model dimension fits,
// 8 otherwise) and values are IEEE floats of the configured width. This is
// the paper's 12d-byte accounting (Section 3.5) when Float64 is used with
// 4-byte keys.
type Raw struct {
	// Float32 stores values in single precision (the paper's "Adam-float"
	// variant in Table 4); otherwise double precision ("Adam-double").
	Float32 bool
}

// Name implements Codec.
func (c *Raw) Name() string {
	if c.Float32 {
		return "Adam-float"
	}
	return "Adam"
}

func wideKeys(dim uint64) bool { return dim > 1<<32 }

// rawHeaderLen is tag, flags, dim u64 and count u32.
const rawHeaderLen = 14

// rawWidths returns the bytes a key and a value occupy.
func rawWidths(wide, f32 bool) (kb, vb int) {
	if f32 {
		return keyBytes(wide), 4
	}
	return keyBytes(wide), 8
}

// RawBreakdown returns the layout of the Raw message that carries nnz
// entries of a dim-dimensional gradient, in single precision when f32 is
// set: its Total is the message's size. It is the one statement of Raw's
// sizes; the emitter, Analyze and the trainer's uncompressed baseline all
// read them here.
func RawBreakdown(dim uint64, nnz int, f32 bool) Breakdown {
	kb, vb := rawWidths(wideKeys(dim), f32)
	return Breakdown{Header: rawHeaderLen, Keys: kb * nnz, Values: vb * nnz}
}

// Encode implements Codec: AppendEncode into a fresh message, sized once.
func (c *Raw) Encode(g *gradient.Sparse) ([]byte, error) {
	return c.AppendEncode(nil, g)
}

// AppendEncode implements AppendEncoder.
//
// Layout: tag | flags(bit0=float32, bit1=wideKeys) | dim u64 | count u32 |
// keys (4 or 8 bytes each) | values (4 or 8 bytes each).
func (c *Raw) AppendEncode(dst []byte, g *gradient.Sparse) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return dst, err
	}
	return appendRaw(dst, g.Dim, g.Keys, g.Values, c.Float32), nil
}

// appendRaw is the one emitter of the Raw layout (AppendEncode and
// MergeInto): it appends the message to dst, growing dst once to hold it,
// and stores every field at its computed offset.
func appendRaw(dst []byte, dim uint64, keys []uint64, vals []float64, f32 bool) []byte {
	wide := wideKeys(dim)
	var flags byte
	if f32 {
		flags |= 1
	}
	if wide {
		flags |= 2
	}
	bd := RawBreakdown(dim, len(keys), f32)
	base := len(dst)
	dst = slices.Grow(dst, bd.Total())[:base+bd.Total()]
	out := dst[base:]
	out[0], out[1] = tagRaw, flags
	binary.LittleEndian.PutUint64(out[2:], dim)
	binary.LittleEndian.PutUint32(out[10:], uint32(len(keys)))
	kout, vout := out[bd.Header:bd.Header+bd.Keys], out[bd.Header+bd.Keys:]
	if wide {
		for i, k := range keys {
			binary.LittleEndian.PutUint64(kout[i*8:], k)
		}
	} else {
		for i, k := range keys {
			binary.LittleEndian.PutUint32(kout[i*4:], uint32(k))
		}
	}
	if f32 {
		for i, v := range vals {
			binary.LittleEndian.PutUint32(vout[i*4:], math.Float32bits(float32(v)))
		}
	} else {
		for i, v := range vals {
			binary.LittleEndian.PutUint64(vout[i*8:], math.Float64bits(v))
		}
	}
	return dst
}

// Decode implements Codec.
func (c *Raw) Decode(data []byte) (*gradient.Sparse, error) {
	g := &gradient.Sparse{}
	if err := c.DecodeInto(data, g); err != nil {
		return nil, err
	}
	return g, nil
}

// DecodeInto implements DecoderInto, reusing dst's key and value storage.
// It is one bulk pass: count is checked against the bytes that remain once,
// then keys and values are indexed loads into dst with gradient.Validate's
// conditions (key < Dim, strictly ascending, finite) tested as they land.
// Only a message that fails one of them pays for Validate, which names it.
func (c *Raw) DecodeInto(data []byte, dst *gradient.Sparse) error {
	r := reader{data: data}
	if err := checkTag(&r, tagRaw); err != nil {
		return err
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	f32 := flags&1 != 0
	wide := flags&2 != 0
	dim, err := r.u64()
	if err != nil {
		return err
	}
	count, err := r.u32()
	if err != nil {
		return err
	}
	kb, vb := rawWidths(wide, f32)
	n := int(count)
	if n < 0 || n > r.remain()/(kb+vb) {
		return errTruncated
	}
	body := r.rest()
	ksrc, vsrc := body[:n*kb], body[n*kb:n*(kb+vb)]
	dst.Dim = dim
	dst.Keys, dst.Values = quantizer.Resize(dst.Keys, n), quantizer.Resize(dst.Values, n)

	// next is the smallest key the ascending order still allows; a valid
	// key is below dim, so next = k+1 cannot wrap before bad is set.
	bad, next := false, uint64(0)
	if wide {
		for i := range dst.Keys {
			k := binary.LittleEndian.Uint64(ksrc[i*8:])
			bad = bad || k >= dim || k < next
			next = k + 1
			dst.Keys[i] = k
		}
	} else {
		for i := range dst.Keys {
			k := uint64(binary.LittleEndian.Uint32(ksrc[i*4:]))
			bad = bad || k >= dim || k < next
			next = k + 1
			dst.Keys[i] = k
		}
	}
	if f32 {
		for i := range dst.Values {
			v := float64(math.Float32frombits(binary.LittleEndian.Uint32(vsrc[i*4:])))
			bad = bad || !gradient.Finite(v)
			dst.Values[i] = v
		}
	} else {
		for i := range dst.Values {
			v := math.Float64frombits(binary.LittleEndian.Uint64(vsrc[i*8:]))
			bad = bad || !gradient.Finite(v)
			dst.Values[i] = v
		}
	}
	if bad {
		return fmt.Errorf("codec: corrupt raw message: %w", dst.Validate())
	}
	return nil
}

// Analyze implements Analyzer.
func (c *Raw) Analyze(g *gradient.Sparse) (Breakdown, error) {
	if err := g.Validate(); err != nil {
		return Breakdown{}, err
	}
	return RawBreakdown(g.Dim, g.NNZ(), c.Float32), nil
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
