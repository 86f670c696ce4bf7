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
// with no header: PackedSize(len(values), width) bytes. The bits gather in
// a 64-bit word that goes out whole as it fills; the bits of a value that
// straddles two words carry into the next.
func AppendPacked(dst []byte, values []uint32, width int) []byte {
	if width < 1 || width > 32 {
		invariant.Failf("bitpack: width %d out of [1,32]", width)
	}
	dst = slices.Grow(dst, PackedSize(len(values), width))
	uw := uint(width)
	var acc uint64 // pending bits, low bits first
	var n uint     // number of valid bits in acc
	for _, v := range values {
		if uw < 32 && v >= 1<<uw {
			invariant.Failf("bitpack: value %d does not fit in %d bits", v, width)
		}
		acc |= uint64(v) << n
		if n += uw; n >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			n -= 64
			acc = uint64(v) >> (uw - n) // the bits that did not fit; 0 when none
		}
	}
	for ; n > 0; n -= min(n, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
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
	// Eight values of up to 8 bits fill width bytes, so each run of eight
	// starts on a byte and lies within the word loaded there. Otherwise a
	// value starts within a byte of the word loaded at its first byte and
	// spans at most 32 bits, so one load holds it. The last few values,
	// whose word would run past data, read it zero-extended.
	i := 0
	if uw <= 8 {
		for ; i+8 <= count && i/8*width+8 <= len(data); i += 8 {
			w := binary.LittleEndian.Uint64(data[i/8*width:])
			v := vals[i : i+8]
			v[0], v[1], v[2], v[3] = uint32(w&mask), uint32(w>>uw&mask), uint32(w>>(2*uw)&mask), uint32(w>>(3*uw)&mask)
			v[4], v[5], v[6], v[7] = uint32(w>>(4*uw)&mask), uint32(w>>(5*uw)&mask), uint32(w>>(6*uw)&mask), uint32(w>>(7*uw)&mask)
		}
	}
	for ; i < count; i++ {
		p := uint(i) * uw
		at := int(p >> 3)
		if at+8 > len(data) {
			break
		}
		vals[i] = uint32(binary.LittleEndian.Uint64(data[at:]) >> (p & 7) & mask)
	}
	for ; i < count; i++ {
		p := uint(i) * uw
		var w uint64
		for j := int(p >> 3); j < len(data) && j < int(p>>3)+8; j++ {
			w |= uint64(data[j]) << (8 * uint(j-int(p>>3)))
		}
		vals[i] = uint32(w >> (p & 7) & mask)
	}
	return vals, PackedSize(count, width), nil
}

// BlockSize returns the serialized size of a block holding count width-bit
// values.
func BlockSize(count, width int) int { return 5 + PackedSize(count, width) }
