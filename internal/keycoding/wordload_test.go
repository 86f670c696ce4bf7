package keycoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// decodeDeltaByteLoop is the decoder DecodeDeltaInto was before it learned
// to take four gaps per flag byte by masked word loads: one gap at a time,
// one byte at a time. It is the reference the fast path must agree with on
// every input, valid or not — same keys, same bytes consumed, same error.
func decodeDeltaByteLoop(data []byte) ([]uint64, int, error) {
	if len(data) < 4 {
		return nil, 0, errors.New("keycoding: truncated count")
	}
	count := int(binary.LittleEndian.Uint32(data))
	off := 4
	if count == 0 {
		return nil, off, nil
	}
	if len(data) < off+8 {
		return nil, 0, errors.New("keycoding: truncated first key")
	}
	if minNeed := off + 8 + (count - 1) + ((count-1)*flagBits+7)/8; count < 0 || len(data) < minNeed {
		return nil, 0, fmt.Errorf("keycoding: count %d exceeds available bytes", count)
	}
	keys := make([]uint64, count)
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
	for i := 1; i < count; i++ {
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
		keys[i] = keys[i-1] + d
		if keys[i] <= keys[i-1] {
			return nil, 0, fmt.Errorf("keycoding: corrupt stream: non-increasing key at %d", i)
		}
	}
	return keys, off, nil
}

// requireSameDecode decodes data both ways and fails on any difference.
func requireSameDecode(t *testing.T, what string, data []byte) {
	t.Helper()
	want, wantUsed, wantErr := decodeDeltaByteLoop(data)
	got, used, err := DecodeDelta(data)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, byte loop says %v", what, err, wantErr)
	}
	if used != wantUsed || len(got) != len(want) {
		t.Fatalf("%s: %d keys in %d bytes, byte loop says %d in %d", what, len(got), used, len(want), wantUsed)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: key %d is %d, byte loop says %d", what, i, got[i], want[i])
		}
	}
}

// keysWithGaps returns keys starting at first with the given gaps.
func keysWithGaps(first uint64, gaps []uint64) []uint64 {
	keys := []uint64{first}
	for _, g := range gaps {
		keys = append(keys, keys[len(keys)-1]+g)
	}
	return keys
}

// gapOfWidth draws a gap that needs exactly nb bytes; 5 is the escape.
func gapOfWidth(rng *rand.Rand, nb int) uint64 {
	switch nb {
	case 1:
		return 1 + uint64(rng.Intn(1<<8-1))
	case 2:
		return 1<<8 + uint64(rng.Intn(1<<16-1<<8))
	case 3:
		return 1<<16 + uint64(rng.Intn(1<<24-1<<16))
	case 4:
		return 1<<24 + uint64(rng.Int63n(escape4-1<<24))
	default:
		return escape4 + uint64(rng.Int63n(1<<40))
	}
}

// TestWordLoadMatchesByteLoop holds the group decode to the byte loop on
// every width in every slot of a flag byte, on the escape in every slot,
// and on each of those streams cut short at every length — which walks the
// hand-over from the 16-bytes-remain fast path to the tail, and every
// truncation error, byte by byte.
func TestWordLoadMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var streams [][]byte
	add := func(gaps []uint64) {
		enc, err := AppendDelta(nil, keysWithGaps(uint64(rng.Intn(1000)), gaps))
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, enc)
	}
	// Every assignment of widths 1–4 to the four slots of one flag byte,
	// between two groups of mixed widths so the group sits mid-stream.
	for fb := 0; fb < 256; fb++ {
		gaps := []uint64{3, 300, 70000, 1 << 25}
		for slot := 0; slot < 4; slot++ {
			gaps = append(gaps, gapOfWidth(rng, fb>>(2*slot)&3+1))
		}
		add(append(gaps, 1, 2, 1<<16, 4, 5, 6, 7, 8, 9))
	}
	// The escape in each slot, and twice in one group.
	for slot := 0; slot < 4; slot++ {
		gaps := []uint64{1, 2, 3, 4, 1, 1, 1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}
		gaps[4+slot] = gapOfWidth(rng, 5)
		add(gaps)
		gaps[4+(slot+1)%4] = escape4 // the smallest escaped gap
		add(gaps)
	}
	// Long streams of every mix, and the short ones the fast path never sees.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 8, 9, 17, 64, 1000} {
		gaps := make([]uint64, n)
		for i := range gaps {
			gaps[i] = gapOfWidth(rng, 1+rng.Intn(5))
		}
		add(gaps)
	}
	add(nil)
	for si, enc := range streams {
		for cut := 0; cut <= len(enc); cut++ {
			requireSameDecode(t, fmt.Sprintf("stream %d cut to %d of %d bytes", si, cut, len(enc)), enc[:cut])
		}
	}
}

// TestWordLoadCorruptGroups patches a valid stream so that one slot of a
// flag-byte group holds a zero gap, or the gaps run the key past 2^64: the
// group decode must hand both to the byte loop's check and report the same
// key.
func TestWordLoadCorruptGroups(t *testing.T) {
	gaps := make([]uint64, 24)
	for i := range gaps {
		gaps[i] = uint64(10 + i)
	}
	enc, err := AppendDelta(nil, keysWithGaps(7, gaps))
	if err != nil {
		t.Fatal(err)
	}
	body := 4 + 8 + (len(gaps)*flagBits+7)/8 // every gap is one byte
	for slot := 0; slot < 8; slot++ {
		mut := append([]byte(nil), enc...)
		mut[body+slot] = 0
		requireSameDecode(t, fmt.Sprintf("zero gap in slot %d", slot), mut)
		if _, _, err := DecodeDelta(mut); err == nil {
			t.Fatalf("zero gap in slot %d accepted", slot)
		}
	}
	for _, first := range []uint64{math.MaxUint64 - 5, math.MaxUint64 - 25, math.MaxUint64 - 45, math.MaxUint64 - 1000} {
		mut := append([]byte(nil), enc...)
		binary.LittleEndian.PutUint64(mut[4:], first)
		requireSameDecode(t, fmt.Sprintf("first key %d", first), mut)
	}
}
