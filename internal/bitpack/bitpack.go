// Package bitpack provides bit-granular packing of small unsigned integers,
// used for SketchML's Step 4 "Binary Encode": once gradient values are
// reduced to bucket indexes in [0, q), each index needs only ⌈log2 q⌉ bits
// instead of a 4- or 8-byte number.
package bitpack

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"sketchml/internal/invariant"
)

// BitsFor returns the number of bits needed to represent values in [0, n),
// with a minimum of 1 bit.
func BitsFor(n int) int {
	if n <= 2 {
		return 1
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// Writer packs fixed-width unsigned integers into a byte stream, LSB-first
// within each byte.
type Writer struct {
	buf   []byte
	cur   uint64 // pending bits, low bits first
	nbits uint   // number of valid bits in cur
	width uint
}

// NewWriter creates a Writer emitting width-bit values. width must be in
// [1, 32].
func NewWriter(width int) *Writer {
	if width < 1 || width > 32 {
		invariant.Failf("bitpack: width %d out of [1,32]", width)
	}
	return &Writer{width: uint(width)}
}

// Write appends one value. v must fit in the configured width.
func (w *Writer) Write(v uint32) {
	if w.width < 32 && v >= 1<<w.width {
		invariant.Failf("bitpack: value %d does not fit in %d bits", v, w.width)
	}
	w.cur |= uint64(v) << w.nbits
	w.nbits += w.width
	for w.nbits >= 8 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur >>= 8
		w.nbits -= 8
	}
}

// Bytes flushes any pending partial byte and returns the packed stream.
// The Writer must not be used after calling Bytes.
func (w *Writer) Bytes() []byte {
	if w.nbits > 0 {
		w.buf = append(w.buf, byte(w.cur))
		w.cur, w.nbits = 0, 0
	}
	return w.buf
}

// PackedSize returns the bytes needed for count width-bit values.
func PackedSize(count, width int) int {
	return (count*width + 7) / 8
}

// Reader unpacks fixed-width unsigned integers from a byte stream produced
// by Writer.
type Reader struct {
	data  []byte
	cur   uint64
	nbits uint
	width uint
	pos   int
}

// NewReader creates a Reader over data with the given value width.
func NewReader(data []byte, width int) *Reader {
	if width < 1 || width > 32 {
		invariant.Failf("bitpack: width %d out of [1,32]", width)
	}
	return &Reader{data: data, width: uint(width)}
}

// Read returns the next value, or an error if the stream is exhausted.
func (r *Reader) Read() (uint32, error) {
	for r.nbits < r.width {
		if r.pos >= len(r.data) {
			return 0, errors.New("bitpack: stream exhausted")
		}
		r.cur |= uint64(r.data[r.pos]) << r.nbits
		r.nbits += 8
		r.pos++
	}
	var mask uint64 = (1 << r.width) - 1
	v := uint32(r.cur & mask)
	r.cur >>= r.width
	r.nbits -= r.width
	return v, nil
}

// ReadAll reads exactly n values into a new slice. n is typically a
// wire-decoded count, so the allocation is refused up front when the
// remaining stream cannot possibly hold n width-bit values.
func (r *Reader) ReadAll(n int) ([]uint32, error) {
	remaining := uint64(len(r.data)-r.pos)*8 + uint64(r.nbits)
	if n < 0 || uint64(n)*uint64(r.width) > remaining {
		return nil, fmt.Errorf("bitpack: %d values need %d bits but only %d remain", n, uint64(n)*uint64(r.width), remaining)
	}
	out := make([]uint32, n)
	for i := range out {
		v, err := r.Read()
		if err != nil {
			return nil, fmt.Errorf("bitpack: value %d of %d: %w", i, n, err)
		}
		out[i] = v
	}
	return out, nil
}

// Block is a self-describing packed block: a small header (count, width)
// followed by the packed values, suitable for embedding in a larger wire
// message.
//
// Layout: uint32 count | uint8 width | packed bytes.

// AppendBlock packs values (each < 2^width) with a self-describing header.
// It packs directly into dst — no intermediate writer buffer — so the only
// allocation is dst's own growth, which callers on the codec hot path
// amortize with pooled buffers.
func AppendBlock(dst []byte, values []uint32, width int) []byte {
	if width < 1 || width > 32 {
		invariant.Failf("bitpack: width %d out of [1,32]", width)
	}
	dst = slices.Grow(dst, BlockSize(len(values), width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(values)))
	dst = append(dst, byte(width))
	uw := uint(width)
	var cur uint64
	var nbits uint
	for _, v := range values {
		if uw < 32 && v >= 1<<uw {
			invariant.Failf("bitpack: value %d does not fit in %d bits", v, width)
		}
		cur |= uint64(v) << nbits
		nbits += uw
		for nbits >= 8 {
			dst = append(dst, byte(cur))
			cur >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(cur))
	}
	return dst
}

// DecodeBlockInto parses a block written by AppendBlock, returning the
// values and the number of bytes consumed. Values are unpacked into dst's
// storage, which is reused when its capacity covers the wire count and
// grown otherwise (a nil dst allocates), and the (possibly regrown) slice
// is returned. The count is bounds-checked against the available bytes
// before any allocation.
func DecodeBlockInto(data []byte, dst []uint32) ([]uint32, int, error) {
	if len(data) < 5 {
		return nil, 0, errors.New("bitpack: truncated block header")
	}
	count := int(binary.LittleEndian.Uint32(data))
	width := int(data[4])
	if width < 1 || width > 32 {
		return nil, 0, fmt.Errorf("bitpack: bad width %d", width)
	}
	if count < 0 || count > 1<<31 {
		return nil, 0, fmt.Errorf("bitpack: bad count %d", count)
	}
	body := PackedSize(count, width)
	if len(data) < 5+body {
		return nil, 0, fmt.Errorf("bitpack: need %d bytes, have %d", 5+body, len(data))
	}
	vals := dst
	if cap(vals) >= count {
		vals = vals[:count]
	} else {
		vals = make([]uint32, count)
	}
	// Unpack inline rather than through a heap Reader so the warm path
	// stays allocation-free.
	packed := data[5 : 5+body]
	uw := uint(width)
	mask := uint64(1)<<uw - 1
	var cur uint64
	var nbits uint
	pos := 0
	for i := range vals {
		for nbits < uw {
			cur |= uint64(packed[pos]) << nbits
			nbits += 8
			pos++
		}
		vals[i] = uint32(cur & mask)
		cur >>= uw
		nbits -= uw
	}
	return vals, 5 + body, nil
}

// BlockSize returns the serialized size of a block holding count width-bit
// values.
func BlockSize(count, width int) int { return 5 + PackedSize(count, width) }
