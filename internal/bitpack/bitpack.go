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

// PackedSize returns the bytes needed for count width-bit values.
func PackedSize(count, width int) int {
	return (count*width + 7) / 8
}

// Block is a self-describing packed block: a small header (count, width)
// followed by the packed values, suitable for embedding in a larger wire
// message.
//
// Layout: uint32 count | uint8 width | packed bytes.

// AppendBlock packs values (each < 2^width) with a self-describing header.
// The only allocation is dst's own growth, which callers on the codec hot
// path amortize with pooled buffers.
func AppendBlock(dst []byte, values []uint32, width int) []byte {
	dst = slices.Grow(dst, BlockSize(len(values), width))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(values)))
	dst = append(dst, byte(width))
	return AppendPacked(dst, values, width)
}

// AppendPacked appends values (each < 2^width), LSB-first within each byte,
// with no header: PackedSize(len(values), width) bytes.
func AppendPacked(dst []byte, values []uint32, width int) []byte {
	if width < 1 || width > 32 {
		invariant.Failf("bitpack: width %d out of [1,32]", width)
	}
	uw := uint(width)
	var cur uint64 // pending bits, low bits first
	var nbits uint // number of valid bits in cur
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
// values and the number of bytes consumed. The values are unpacked by
// DecodePackedInto, into dst's storage.
func DecodeBlockInto(data []byte, dst []uint32) ([]uint32, int, error) {
	if len(data) < 5 {
		return nil, 0, errors.New("bitpack: truncated block header")
	}
	count := int(binary.LittleEndian.Uint32(data))
	vals, used, err := DecodePackedInto(data[5:], count, int(data[4]), dst)
	if err != nil {
		return nil, 0, err
	}
	return vals, 5 + used, nil
}

// DecodePackedInto reads count width-bit values written by AppendPacked from
// the front of data, returning them and the number of bytes consumed. Values
// are unpacked into dst's storage, which is reused when its capacity covers
// count and grown otherwise (a nil dst allocates), and the (possibly
// regrown) slice is returned. count and width are typically wire-decoded, so
// count is checked against the bits data holds before any allocation.
func DecodePackedInto(data []byte, count, width int, dst []uint32) ([]uint32, int, error) {
	if width < 1 || width > 32 {
		return nil, 0, fmt.Errorf("bitpack: bad width %d", width)
	}
	if count < 0 || count > 8*len(data)/width {
		return nil, 0, fmt.Errorf("bitpack: %d values of %d bits overrun %d bytes", count, width, len(data))
	}
	vals := slices.Grow(dst[:0], count)[:count]
	uw := uint(width)
	mask := uint64(1)<<uw - 1
	var cur uint64
	var nbits uint
	pos := 0
	for i := range vals {
		for nbits < uw {
			cur |= uint64(data[pos]) << nbits
			nbits += 8
			pos++
		}
		vals[i] = uint32(cur & mask)
		cur >>= uw
		nbits -= uw
	}
	return vals, pos, nil
}

// BlockSize returns the serialized size of a block holding count width-bit
// values.
func BlockSize(count, width int) int { return 5 + PackedSize(count, width) }
