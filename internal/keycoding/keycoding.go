// Package keycoding implements the lossless codes for gradient key lists:
// blocked Elias–Fano (ef.go), the bit-granular code SketchML messages carry;
// SketchML's dynamic delta-binary encoding (Section 3.4), which the paper
// uses and older messages carry; and the alternatives the paper discusses
// for comparison (bitmap, Appendix A.3; varint as a natural strawman for
// the ablation benches).
//
// Gradient keys are the dimensions of the nonzero entries of a sparse
// gradient: non-repetitive, sorted ascending, possibly huge in value but
// with small gaps between neighbours. Delta-binary encoding stores, for
// each key, the increment over its predecessor in the least number of whole
// bytes (1–4), with a 2-bit "byte flag" per key recording that width. The
// encoding is exactly lossless — keys must decode bit-for-bit or SGD would
// update the wrong model dimension.
package keycoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// flag values: number of bytes used for a delta is flag+1.
const (
	flagBits = 2
)

// escape4 marks a 4-byte delta slot whose true value is the 8-byte word
// that follows. Gaps of 2^32-1 and beyond (possible with 8-byte key spaces)
// use this escape; the paper's 2-bit byte flags cover only 1–4 bytes.
const escape4 = 1<<32 - 1

// widthMask[flag] keeps the low flag+1 bytes of a little-endian word.
var widthMask = [4]uint64{1<<8 - 1, 1<<16 - 1, 1<<24 - 1, 1<<32 - 1}

// ErrNotAscending is returned when keys are not strictly increasing.
var ErrNotAscending = errors.New("keycoding: keys must be strictly ascending")

// bytesNeeded returns how many bytes (1..4) hold d.
func bytesNeeded(d uint64) int {
	switch {
	case d < 1<<8:
		return 1
	case d < 1<<16:
		return 2
	case d < 1<<24:
		return 3
	default:
		return 4
	}
}

// AppendDelta encodes keys (strictly ascending) into dst.
//
// Layout: uint32 count | uint64 first key | ceil(count-1 flags at 2 bits)
// flag bytes | variable-width delta bytes (little endian).
//
// The flag region is reserved in dst up front and filled in place while the
// delta bytes are appended behind it, so encoding allocates nothing beyond
// dst's own growth.
func AppendDelta(dst []byte, keys []uint64) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	if len(keys) == 0 {
		return dst, nil
	}
	dst = binary.LittleEndian.AppendUint64(dst, keys[0])
	n := len(keys) - 1
	if n == 0 {
		return dst, nil
	}

	flagLen := (n*flagBits + 7) / 8
	dst = slices.Grow(dst, flagLen+n) // flags + ≥1 body byte per delta
	flagOff := len(dst)
	dst = dst[:flagOff+flagLen]
	clear(dst[flagOff:]) // grown capacity may hold stale pooled bytes
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, fmt.Errorf("%w: keys[%d]=%d <= keys[%d]=%d",
				ErrNotAscending, i, keys[i], i-1, keys[i-1])
		}
		d := keys[i] - keys[i-1]
		j := i - 1
		if d >= escape4 {
			// 4-byte escape marker followed by the 8-byte delta.
			dst[flagOff+j/4] |= 3 << uint((j%4)*flagBits)
			dst = append(dst, 0xFF, 0xFF, 0xFF, 0xFF)
			dst = binary.LittleEndian.AppendUint64(dst, d)
			continue
		}
		nb := bytesNeeded(d)
		dst[flagOff+j/4] |= byte(nb-1) << uint((j%4)*flagBits)
		for b := 0; b < nb; b++ {
			dst = append(dst, byte(d>>(8*uint(b))))
		}
	}
	return dst, nil
}

// DecodeDelta parses keys encoded by AppendDelta, returning the keys and
// bytes consumed.
func DecodeDelta(data []byte) ([]uint64, int, error) {
	return DecodeDeltaInto(data, nil)
}

// DecodeDeltaInto is DecodeDelta with a caller-owned destination: keys
// are decoded into dst's storage, which is reused when its capacity
// covers the wire count and grown otherwise, and the (possibly regrown)
// slice is returned. Steady-state decoders that keep dst across messages
// therefore allocate nothing once capacity warms up.
func DecodeDeltaInto(data []byte, dst []uint64) ([]uint64, int, error) {
	if len(data) < 4 {
		return nil, 0, errors.New("keycoding: truncated count")
	}
	count := int(binary.LittleEndian.Uint32(data))
	off := 4
	if count == 0 {
		return dst[:0], off, nil
	}
	if len(data) < off+8 {
		return nil, 0, errors.New("keycoding: truncated first key")
	}
	// Reject implausible counts before allocating: each key beyond the
	// first needs at least one delta byte plus its flag bits.
	if minNeed := off + 8 + (count - 1) + ((count-1)*flagBits+7)/8; count < 0 || len(data) < minNeed {
		return nil, 0, fmt.Errorf("keycoding: count %d exceeds available bytes", count)
	}
	keys := dst
	if cap(keys) >= count {
		keys = keys[:count]
	} else {
		keys = make([]uint64, count)
	}
	keys[0] = binary.LittleEndian.Uint64(data[off:])
	off += 8
	n := count - 1
	if n == 0 {
		return keys, off, nil
	}
	flagLen := (n*flagBits + 7) / 8
	if len(data) < off+flagLen {
		return nil, 0, errors.New("keycoding: truncated flags")
	}
	flags := data[off : off+flagLen]
	off += flagLen
	prev := keys[0]
	for i := 1; i < count; {
		// A whole flag byte with 16 body bytes behind it is four gaps, each
		// one little-endian word load masked to its width. A zero gap or the
		// escape marker leaves the group to the loop below, which reports
		// the first or reads the 8-byte delta behind the second.
		if j := i - 1; j%4 == 0 && i+4 <= count && off+16 <= len(data) {
			fb := uint(flags[j/4])
			// Each index is two bits of the flag byte, 0..3 into the 4-entry table.
			m0, m1, m2, m3 := widthMask[fb&3], widthMask[fb>>2&3], widthMask[fb>>4&3], widthMask[fb>>6]
			o1 := off + int(fb&3+1)
			o2 := o1 + int(fb>>2&3+1)
			o3 := o2 + int(fb>>4&3+1)
			d0 := uint64(binary.LittleEndian.Uint32(data[off:])) & m0
			d1 := uint64(binary.LittleEndian.Uint32(data[o1:])) & m1
			d2 := uint64(binary.LittleEndian.Uint32(data[o2:])) & m2
			d3 := uint64(binary.LittleEndian.Uint32(data[o3:])) & m3
			k0 := prev + d0
			k1 := k0 + d1
			k2 := k1 + d2
			k3 := k2 + d3
			// d−1 ≥ escape4−1 is d == 0 or d == escape4; four gaps below
			// 2^32 that wrap uint64 land below prev.
			if d0-1 < escape4-1 && d1-1 < escape4-1 && d2-1 < escape4-1 && d3-1 < escape4-1 && k3 > prev {
				keys[i], keys[i+1], keys[i+2], keys[i+3] = k0, k1, k2, k3
				prev = k3
				off = o3 + int(fb>>6+1)
				i += 4
				continue
			}
		}
		j := i - 1
		nb := int(flags[j/4]>>uint((j%4)*flagBits))&0x3 + 1
		if len(data) < off+nb {
			return nil, 0, fmt.Errorf("keycoding: truncated delta %d", i)
		}
		var d uint64
		for b := 0; b < nb; b++ {
			d |= uint64(data[off+b]) << (8 * uint(b))
		}
		off += nb
		if nb == 4 && d == escape4 {
			if len(data) < off+8 {
				return nil, 0, fmt.Errorf("keycoding: truncated wide delta %d", i)
			}
			d = binary.LittleEndian.Uint64(data[off:])
			off += 8
		}
		keys[i] = prev + d
		if keys[i] <= prev {
			return nil, 0, fmt.Errorf("keycoding: corrupt stream: non-increasing key at %d", i)
		}
		prev = keys[i]
		i++
	}
	return keys, off, nil
}

// AppendVarint encodes keys as a count followed by uvarint-encoded deltas
// (first key absolute). Provided as the natural alternative key codec for
// the ablation bench; it lacks the separated flag stream of delta-binary.
func AppendVarint(dst []byte, keys []uint64) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	var prev uint64
	var scratch [binary.MaxVarintLen64]byte
	for i, k := range keys {
		if i > 0 && k <= prev {
			return nil, ErrNotAscending
		}
		d := k - prev
		if i == 0 {
			d = k
		}
		n := binary.PutUvarint(scratch[:], d)
		dst = append(dst, scratch[:n]...)
		prev = k
	}
	return dst, nil
}

// BitmapSize returns the size of a dense bitmap key encoding over
// dimension space [0, dim): an 8-byte dim, then one bit per dimension.
// Appendix A.3 discusses this alternative: it costs ⌈D/8⌉ bytes regardless
// of sparsity, which loses to delta-binary whenever d/D is small.
func BitmapSize(dim uint64) int { return 8 + int((dim+7)/8) }
