package keycoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// efBlock is the number of keys in each Elias–Fano block after the first
// key (the last block holds the rest). Each block sends its own universe,
// so a list whose density varies pays for each stretch at that stretch's
// own gap, and a block's header (the universe's uvarint and the width
// byte, four bytes at the benchmark's gaps) is spread over 256 keys.
const efBlock = 256

// AppendEF encodes keys (strictly ascending) into dst as a blocked
// Elias–Fano list, the key code SketchML messages carry.
//
// Layout: uint32 count | uint64 first key | one block per efBlock keys
// after the first. A block of m keys k_0 < … < k_{m−1} over its base b
// (the key before the block) codes y_i = k_i − b − 1 − i, which never
// decreases and ends at top = k_{m−1} − b − m:
//
//	uvarint U = k_{m−1} − b | uint8 l | m l-bit lows (y_i mod 2^l, LSB
//	first, padded to a byte) | m + top>>l bits of highs (bit y_i>>l + i
//	set for each key, padded to a byte)
//
// l = ⌊log2((top+1)/m)⌋ (0 when the block is denser than that), so top>>l
// < 2m and a key costs under l + 3 bits: its low bits, its own one and
// fewer than two zeros of high gap on average. Keys 2^5 to 2^6 apart cost
// about a byte.
func AppendEF(dst []byte, keys []uint64) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	if len(keys) == 0 {
		return dst, nil
	}
	dst = binary.LittleEndian.AppendUint64(dst, keys[0])
	for i := 1; i < len(keys); i += efBlock {
		var err error
		if dst, err = appendEFBlock(dst, keys[i-1], keys[i:min(i+efBlock, len(keys))], i); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// efLowBits is the low-bit width of a block of m keys whose largest y is
// top: ⌊log2((top+1)/m)⌋, or 0 when (top+1)/m < 1.
func efLowBits(top, m uint64) uint {
	q := (top + 1) / m // top < 2^64 − 1 because U ≥ m ≥ 1
	if q == 0 {
		return 0
	}
	return uint(bits.Len64(q) - 1)
}

// appendEFBlock appends one block of keys over base; at is the first key's
// index in the list, for the error.
func appendEFBlock(dst []byte, base uint64, blk []uint64, at int) ([]byte, error) {
	prev := base
	for i, k := range blk {
		if k <= prev {
			return nil, fmt.Errorf("%w: keys[%d]=%d <= keys[%d]=%d",
				ErrNotAscending, at+i, k, at+i-1, prev)
		}
		prev = k
	}
	m := uint64(len(blk))
	u := prev - base
	top := u - m
	l := efLowBits(top, m)
	lowLen := int((m*uint64(l) + 7) / 8)
	hiLen := int((m + top>>l + 7) / 8)
	dst = binary.AppendUvarint(dst, u)
	dst = append(dst, byte(l))
	dst = slices.Grow(dst, lowLen+hiLen)
	base++ // y_i = k_i − base − i from here on

	if l > 0 {
		// A 64-bit accumulator: whole words go out as they fill, the bits of
		// a value that straddles two words carry into the next.
		mask := uint64(1)<<l - 1
		var acc uint64
		var n uint // bits held in acc
		for i, k := range blk {
			v := (k - base - uint64(i)) & mask
			acc |= v << n
			if n += l; n >= 64 {
				dst = binary.LittleEndian.AppendUint64(dst, acc)
				n -= 64
				acc = v >> (l - n) // the bits that did not fit; 0 when none
			}
		}
		for ; n > 0; n -= min(n, 8) {
			dst = append(dst, byte(acc))
			acc >>= 8
		}
	}

	off := len(dst)
	dst = dst[:off+hiLen]
	hs := dst[off:]
	clear(hs) // grown capacity may hold stale pooled bytes
	for i, k := range blk {
		p := (k-base-uint64(i))>>(l&63) + uint64(i)
		hs[p>>3] |= 1 << (p & 7)
	}
	return dst, nil
}

// DecodeEFInto parses a list written by AppendEF into dst's storage, which
// is reused when its capacity covers the wire count and grown otherwise,
// and returns the keys and the bytes consumed. The count is checked against
// the least the bytes that follow could hold before anything is sized by
// it, and each block's bits against the bytes that remain before the block
// is read. The keys come back strictly ascending: a block whose keys would
// not ascend, would wrap past 2^64 − 1 or would not end at its universe is
// an error.
func DecodeEFInto(data []byte, dst []uint64) ([]uint64, int, error) {
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
	// Each block costs at least its two header bytes and a highs bit a key.
	n := count - 1
	if minNeed := off + 8 + 2*((n+efBlock-1)/efBlock) + (n+7)/8; count < 0 || len(data) < minNeed {
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
	for i := 1; i < count; i += efBlock {
		used, err := decodeEFBlock(data[off:], keys[i-1], keys[i:min(i+efBlock, count)])
		if err != nil {
			return nil, 0, fmt.Errorf("keycoding: block at key %d: %w", i, err)
		}
		off += used
	}
	return keys, off, nil
}

// decodeEFBlock decodes the block at the front of data, whose keys follow
// base, into out (len(out) keys), returning the bytes it spans.
//
// The lows are read first, by word loads, into out; then the highs a word
// at a time: each set bit, lowest first, is the next key, its high part
// the bit's position less the keys before it. A block is accepted iff its
// highs hold exactly len(out) ones, the y they give with the lows never
// decrease, and the last is the block's top; that last test puts the last
// one at the region's last bit, so no y exceeds top and no key wraps.
func decodeEFBlock(data []byte, base uint64, out []uint64) (int, error) {
	u, hn := binary.Uvarint(data)
	if hn <= 0 {
		return 0, errors.New("bad universe")
	}
	if hn >= len(data) {
		return 0, errors.New("truncated low-bit width")
	}
	l := uint(data[hn])
	off := hn + 1
	m := uint64(len(out))
	if l > 63 {
		return 0, fmt.Errorf("low-bit width %d > 63", l)
	}
	if u < m || u > math.MaxUint64-base {
		return 0, fmt.Errorf("universe %d cannot hold %d keys above %d", u, m, base)
	}
	top := u - m
	hi := top >> l
	rest := uint64(len(data) - off)
	lowLen := (m*uint64(l) + 7) / 8
	if lowLen > rest || 8*(rest-lowLen) < m || hi > 8*(rest-lowLen)-m {
		return 0, fmt.Errorf("%d keys of %d low bits and %d high gaps overrun %d bytes", m, l, hi, rest)
	}
	hiBits := m + hi
	hs := off + int(lowLen) // the highs start here
	efLowsInto(out, data, off, l)
	y, err := efSelect(out, data, hs, hiBits, l, base+1)
	if err != nil {
		return 0, err
	}
	if y != top {
		return 0, fmt.Errorf("highs end at y %d, want %d", y, top)
	}
	return hs + int((hiBits+7)/8), nil
}

// efLowsInto puts the l-bit lows that start at data[lo:] in out, one a key.
func efLowsInto(out []uint64, data []byte, lo int, l uint) {
	if l == 0 {
		clear(out)
		return
	}
	mask := uint64(1)<<l - 1
	i := 0
	if l <= 8 {
		// Eight lows fill l bytes: each run of eight starts on a byte and
		// lies within the word loaded there.
		for ; i+8 <= len(out) && lo+i/8*int(l)+8 <= len(data); i += 8 {
			w := binary.LittleEndian.Uint64(data[lo+i/8*int(l):])
			o := out[i : i+8]
			o[0], o[1], o[2], o[3] = w&mask, w>>(l&63)&mask, w>>(2*l&63)&mask, w>>(3*l&63)&mask
			o[4], o[5], o[6], o[7] = w>>(4*l&63)&mask, w>>(5*l&63)&mask, w>>(6*l&63)&mask, w>>(7*l&63)&mask
		}
	}
	// The rest one at a time, and every low of a block wider than 8 bits
	// (about 1 % of the blocks of the benchmark's lr-sketch rows, 5 % of the
	// service row's): short words (at the end of data) read zero-extended,
	// and a low wider than 56 bits that straddles two words reads both.
	for ; i < len(out); i++ {
		p := uint(i) * l
		at := lo + int(p>>3)
		low := loadLE64(data, at) >> (p & 7)
		if l+p&7 > 64 {
			low |= loadLE64(data, at+8) << (64 - p&7)
		}
		out[i] = low & mask
	}
}

// efSelect reads the hiBits bits of highs at data[hs:] a word at a time
// and finishes each key whose low out holds: a set bit at position p is
// key i with y = (p − i)<<l | low, written as base + i + y. It returns the
// last y. The highs must hold a one for every key and no more, and no y
// may fall below the one before it.
func efSelect(out []uint64, data []byte, hs int, hiBits uint64, l uint, base uint64) (uint64, error) {
	var y uint64
	n := 0
	for w := uint64(0); w < hiBits; w += 64 {
		word := loadLE64(data, hs+int(w>>3))
		if rem := hiBits - w; rem < 64 {
			word &= 1<<rem - 1
		}
		ones := bits.OnesCount64(word)
		if ones > len(out)-n {
			return 0, errors.New("highs hold more keys than the block")
		}
		var ok bool
		if y, ok = efWord(out[n:n+ones], word, w-uint64(n), base+uint64(n), uint64(1)<<l, y); !ok {
			return 0, errors.New("keys do not ascend")
		}
		n += ones
	}
	if n != len(out) {
		return 0, fmt.Errorf("highs hold %d keys, want %d", n, len(out))
	}
	return y, nil
}

// efWord finishes the len(win) keys whose ones word holds, after the y
// efSelect has reached: at is the word's first bit position less the keys
// before it, k the first key's base + i and scale 2^l. It returns the last
// y, or false at the first y that falls below its predecessor. It is kept
// out of line, and multiplies by scale where it could shift by l, so that
// its loop's values stay in registers: inlined into efSelect it spilled
// three of them, the shift pinned l to CX, and a key took a fifth more
// time.
//
//go:noinline
func efWord(win []uint64, word, at, k, scale, y uint64) (uint64, bool) {
	for j := range win {
		next := (at+uint64(bits.TrailingZeros64(word|1<<63)))*scale | win[j] // word != 0 here
		if next < y {
			return y, false
		}
		word &= word - 1
		y = next
		win[j] = k + y
		at--
		k++
	}
	return y, true
}

// loadLE64 reads the little-endian word at data[at:], short words (at the
// end of data) zero-extended.
func loadLE64(data []byte, at int) uint64 {
	if at+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[at:])
	}
	var w uint64
	for j := at; j < len(data); j++ {
		w |= uint64(data[j]) << (8 * uint(j-at))
	}
	return w
}
