package keycoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// decodeEFBitLoop is the reference DecodeEFInto must agree with on every
// input, valid or not — same keys, same bytes consumed, error iff it
// errors: the layout AppendEF documents, read one bit at a time, each
// block's ones collected before any key is formed, the keys appended as
// they decode (so nothing is sized by the wire).
func decodeEFBitLoop(data []byte) ([]uint64, int, error) {
	if len(data) < 4 {
		return nil, 0, errors.New("truncated count")
	}
	count := int(binary.LittleEndian.Uint32(data))
	if count == 0 {
		return nil, 4, nil
	}
	if len(data) < 12 {
		return nil, 0, errors.New("truncated first key")
	}
	keys := []uint64{binary.LittleEndian.Uint64(data[4:])}
	off := 12
	bit := func(p uint64) uint64 { return uint64(data[p/8]>>(p%8)) & 1 }
	for len(keys) < count {
		base := keys[len(keys)-1]
		m := uint64(min(count-len(keys), 256))
		u, hn := binary.Uvarint(data[off:])
		if hn <= 0 {
			return nil, 0, errors.New("bad universe")
		}
		off += hn
		if off >= len(data) {
			return nil, 0, errors.New("truncated width")
		}
		l := uint64(data[off])
		off++
		if l > 63 || u < m || u > math.MaxUint64-base {
			return nil, 0, errors.New("bad block header")
		}
		top := u - m
		avail := 8 * uint64(len(data)-off)
		lowBits := 8 * ((m*l + 7) / 8)
		if lowBits > avail || avail-lowBits < m || top>>l > avail-lowBits-m {
			return nil, 0, errors.New("block overruns the data")
		}
		hiBits := m + top>>l
		lowStart, hiStart := 8*uint64(off), 8*uint64(off)+lowBits
		var ones []uint64
		for p := uint64(0); p < hiBits; p++ {
			if bit(hiStart+p) == 1 {
				ones = append(ones, p)
			}
		}
		if uint64(len(ones)) != m {
			return nil, 0, fmt.Errorf("%d ones for %d keys", len(ones), m)
		}
		var prev uint64
		for i, p := range ones {
			var low uint64
			for j := uint64(0); j < l; j++ {
				low |= bit(lowStart+uint64(i)*l+j) << j
			}
			y := (p-uint64(i))<<l | low
			if y < prev || (uint64(i) == m-1 && y != top) {
				return nil, 0, errors.New("bad y")
			}
			prev = y
			keys = append(keys, base+1+uint64(i)+y)
		}
		off = int((hiStart + hiBits + 7) / 8)
	}
	return keys, off, nil
}

// requireSameEF holds DecodeEFInto to decodeEFBitLoop on data.
func requireSameEF(t *testing.T, what string, data []byte) {
	t.Helper()
	want, wantUsed, wantErr := decodeEFBitLoop(data)
	got, used, err := DecodeEFInto(data, nil)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: DecodeEFInto error %v, reference error %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	if used != wantUsed || len(got) != len(want) {
		t.Fatalf("%s: %d keys in %d bytes, reference %d keys in %d bytes", what, len(got), used, len(want), wantUsed)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: key %d = %d, reference %d", what, i, got[i], want[i])
		}
		if i > 0 && got[i] <= got[i-1] {
			t.Fatalf("%s: key %d = %d does not ascend", what, i, got[i])
		}
	}
}

// requireEFRoundTrip encodes keys, decodes them back exactly with every
// byte consumed, after a prefix too, and checks the bytes on the
// reference decoder.
func requireEFRoundTrip(t *testing.T, what string, keys []uint64) []byte {
	t.Helper()
	enc, err := AppendEF(nil, keys)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	prefixed, err := AppendEF([]byte{0xAA, 0xBB}, keys)
	if err != nil || string(prefixed[2:]) != string(enc) {
		t.Fatalf("%s: appending after a prefix wrote other bytes (%v)", what, err)
	}
	junk := make([]uint64, 3, len(keys)+3)
	got, used, err := DecodeEFInto(enc, junk)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if used != len(enc) || !slices.Equal(got, keys) {
		t.Fatalf("%s: decoded %d keys from %d of %d bytes, want the %d encoded", what, len(got), used, len(enc), len(keys))
	}
	requireSameEF(t, what, enc)
	return enc
}

func TestEFRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 255, 256, 257, 258, 512, 513, 4097} {
		for _, gap := range []int{1, 2, 3, 64, 1000, 1 << 20} {
			requireEFRoundTrip(t, fmt.Sprintf("n=%d gap<%d", n, gap), ascendingKeys(rng, n, gap))
		}
	}
	// The paper's running example (Figure 7).
	requireEFRoundTrip(t, "figure 7", []uint64{702, 735, 1244, 2516, 3536, 3786, 4187, 4195})
}

// TestEFWideKeys covers keys past 2^32 (Dim > 2^32, the wide-keys flag's
// messages) and the 64-bit edges: low widths past 56 bits, whose lows
// straddle two words, a block that ends at the largest key, and one key
// above 0 whose universe is the whole key space.
func TestEFWideKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	spread := func(n int, first, span uint64) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = first + uint64(i)*(span/uint64(n)) + rng.Uint64()%(span/uint64(n)/2+1)
		}
		return keys
	}
	cases := map[string][]uint64{
		"dim 2^33":           spread(300, 7, 1<<33),
		"dim 2^40, sparse":   spread(600, 1<<32, 1<<40),
		"57 to 63 low bits":  spread(260, 0, math.MaxUint64/2),
		"ends at max":        {0, 1 << 63, math.MaxUint64 - 1, math.MaxUint64},
		"whole space":        {0, math.MaxUint64},
		"dense at the top":   {math.MaxUint64 - 3, math.MaxUint64 - 2, math.MaxUint64 - 1, math.MaxUint64},
		"one key, max":       {math.MaxUint64},
		"dense run then gap": append(ascendingKeys(rng, 300, 1), 1<<62, 1<<62+1),
	}
	for name, keys := range cases {
		requireEFRoundTrip(t, name, keys)
	}
}

// TestEFEveryWidth round-trips a list at every low-bit width from 0 to
// 62, with a full block and a short one where 2^64 has room for them: the lows are read eight to a
// word up to 8 bits, four to a word up to 14, and one at a time past that
// or where a word would run off the end of the data.
func TestEFEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for l := 0; l < 63; l++ {
		n := 300
		if l > 54 {
			n = 1 << (63 - l) // n gaps of up to 2^l within 2^64
		}
		keys := make([]uint64, n)
		gap := uint64(1) << l
		var cur uint64
		for i := range keys {
			cur += gap/2 + 1 + rng.Uint64()%(gap/2+1)
			keys[i] = cur
		}
		enc := requireEFRoundTrip(t, fmt.Sprintf("l=%d", l), keys)
		_, hn := binary.Uvarint(enc[12:])
		if got := int(enc[12+hn]); got < l-1 || got > l+1 {
			t.Errorf("gaps near 2^%d coded at width %d", l, got)
		}
	}
}

// TestEFBytesPerKey holds the code to Elias–Fano's bound, 2 + ⌈log2 of
// the mean gap⌉ bits a key plus the block headers, and to its point: it
// is smaller than delta-binary, which pays at least a byte and two flag
// bits a key.
func TestEFBytesPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, gap := range []int{2, 16, 100, 1000, 1 << 16} {
		keys := ascendingKeys(rng, 20000, gap)
		ef := requireEFRoundTrip(t, fmt.Sprintf("gap<%d", gap), keys)
		delta, err := AppendDelta(nil, keys)
		if err != nil {
			t.Fatal(err)
		}
		meanGap := float64(gap+1) / 2
		bound := (math.Ceil(math.Log2(meanGap))+2)/8 + 4.0/efBlock
		if bpk := float64(len(ef)-12) / float64(len(keys)-1); bpk > bound {
			t.Errorf("gap<%d: %.3f B/key, bound %.3f", gap, bpk, bound)
		}
		if len(ef) >= len(delta) {
			t.Errorf("gap<%d: Elias–Fano %d bytes, delta-binary %d", gap, len(ef), len(delta))
		}
	}
}

func TestEFRejectsUnsorted(t *testing.T) {
	for _, keys := range [][]uint64{{5, 3}, {1, 1}, append(ascendingKeys(rand.New(rand.NewSource(4)), 300, 9), 0)} {
		if _, err := AppendEF(nil, keys); !errors.Is(err, ErrNotAscending) {
			t.Errorf("AppendEF(%d keys ending %d) = %v, want ErrNotAscending", len(keys), keys[len(keys)-1], err)
		}
	}
}

// TestEFHostile corrupts valid lists where a decoder that trusts the wire
// goes wrong: a count the bytes cannot hold, block headers that announce a
// width, a universe or a high region the list does not have, and highs or
// lows that make the keys fall back. Each must be refused, as the
// reference refuses it, and refusing a count must not allocate by it.
func TestEFHostile(t *testing.T) {
	keys := ascendingKeys(rand.New(rand.NewSource(5)), 600, 100)
	enc, err := AppendEF(nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), enc...)) }
	_, hn := binary.Uvarint(enc[12:])
	width := 12 + hn // the first block's l
	cases := map[string][]byte{
		"count 2^32-1": mut(func(b []byte) []byte { binary.LittleEndian.PutUint32(b, math.MaxUint32); return b }),
		"count +1":     mut(func(b []byte) []byte { b[0]++; return b }),
		"count -1":     mut(func(b []byte) []byte { b[0]--; return b }),
		"width 64":     mut(func(b []byte) []byte { b[width] = 64; return b }),
		"width 255":    mut(func(b []byte) []byte { b[width] = 255; return b }),
		"width -1":     mut(func(b []byte) []byte { b[width]--; return b }),
		"width +1":     mut(func(b []byte) []byte { b[width]++; return b }),
		"universe -1":  mut(func(b []byte) []byte { b[12]--; return b }),
		"universe +1":  mut(func(b []byte) []byte { b[12]++; return b }),
		"universe huge": mut(func(b []byte) []byte {
			return append(binary.AppendUvarint(b[:12:12], math.MaxUint64), b[12+hn:]...)
		}),
		"universe bad varint": mut(func(b []byte) []byte {
			return append(b[:12:12], 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
		}),
		"highs emptied": mut(func(b []byte) []byte { clear(b[len(b)-40:]); return b }),
		"highs flooded": mut(func(b []byte) []byte { b[len(b)-20] = 0xFF; return b }),
		"last bit gone": mut(func(b []byte) []byte { b[len(b)-1] = 0; return b }),
		"truncated":     enc[:len(enc)-1],
		"header only":   enc[:13],
		"first key cut": enc[:9],
		// Three keys: 10, then a block of two with l = 2 whose highs are both
		// 0 and whose lows, 3 then 1, fall back; the last y is the top.
		"lows fall back": {3, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 3, 2, 3 | 1<<2, 0b11},
	}
	for name, data := range cases {
		requireSameEF(t, name, data)
		var got error
		alloc := allocated(func() { _, _, got = DecodeEFInto(data, nil) })
		if got == nil {
			t.Errorf("%s: accepted", name)
		}
		if alloc > 64*uint64(len(data))+1024 {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(data), alloc)
		}
	}
	// The count bound: 2^20 keys need at least 2^17 bytes of highs.
	big := binary.LittleEndian.AppendUint32(nil, 1<<20)
	big = append(big, make([]byte, 8+1<<16)...)
	if alloc := allocated(func() { _, _, err = DecodeEFInto(big, nil) }); err == nil || alloc > 1024 {
		t.Errorf("a count of 2^20 over %d bytes: %v, %d bytes allocated", len(big), err, alloc)
	}
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzEF checks the Elias–Fano list both ways. Arbitrary ascending keys —
// the input's words sorted (keys anywhere in [0, 2^64), so Dim > 2^32 and
// low widths to 63 bits), and a dense list with the input's bytes as gaps
// — must round-trip exactly; and the input itself, as hostile bytes, must
// decode as the bit-at-a-time reference decodes it, without a panic and
// without allocating more than the 64 bytes a byte of highs could hold
// keys for.
// Run with: go test -fuzz FuzzEF ./internal/keycoding
func FuzzEF(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<40))
	for _, keys := range [][]uint64{
		{3, 9, 1 << 40},
		{0, math.MaxUint64},
		ascendingKeys(rand.New(rand.NewSource(6)), 300, 50),
	} {
		if enc, err := AppendEF(nil, keys); err == nil {
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireEFRoundTrip(t, "sorted words", keysFromBytes(data))
		dense := make([]uint64, len(data))
		var cur uint64 = 1 << 32
		for i, b := range data {
			cur += uint64(b) + 1
			dense[i] = cur
		}
		requireEFRoundTrip(t, "byte gaps", dense)

		requireSameEF(t, "fuzz input", data)
		if alloc := allocated(func() { _, _, _ = DecodeEFInto(data, nil) }); alloc > 64*uint64(len(data))+1024 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
	})
}

// BenchmarkEFEncode and BenchmarkEFDecode run on the lists
// BenchmarkDeltaEncode and BenchmarkDeltaDecode do.
func BenchmarkEFEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	keys := ascendingKeys(rng, 100000, 200)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendEF(nil, keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEFDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	keys := ascendingKeys(rng, 100000, 200)
	data, _ := AppendEF(nil, keys)
	dst := make([]uint64, len(keys))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeEFInto(data, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
