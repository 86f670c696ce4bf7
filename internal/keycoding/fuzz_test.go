package keycoding

import (
	"encoding/binary"
	"sort"
	"testing"
)

// keysFromBytes derives a strictly ascending key slice from arbitrary fuzz
// input: consume 8-byte little-endian words, sort, and deduplicate. The
// mapping is deterministic, so every crash reproduces from its corpus entry.
func keysFromBytes(data []byte) []uint64 {
	keys := make([]uint64, 0, len(data)/8)
	for len(data) >= 8 {
		keys = append(keys, binary.LittleEndian.Uint64(data))
		data = data[8:]
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := keys[:0]
	var prev uint64
	for i, k := range keys {
		if i > 0 && k == prev {
			continue
		}
		out = append(out, k)
		prev = k
	}
	return out
}

// FuzzDeltaRoundTrip checks the Section 3.4 losslessness contract on the
// delta-binary key codec for arbitrary sorted uint64 slices: keys must
// survive encode→decode bit-for-bit (a corrupted key updates the wrong
// model dimension), DeltaSize must agree exactly with the bytes actually
// produced, and DecodeDelta must consume exactly what AppendDelta wrote.
// Mirrors the fuzz coverage the codec package has for value decoding.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1), 2))
	// Neighbours 2^32-1 apart exercise the 4-byte escape path.
	wide := binary.LittleEndian.AppendUint64(nil, 5)
	wide = binary.LittleEndian.AppendUint64(wide, 5+(1<<32-1))
	wide = binary.LittleEndian.AppendUint64(wide, 1<<63)
	f.Add(wide)

	f.Fuzz(func(t *testing.T, data []byte) {
		keys := keysFromBytes(data)

		enc, err := AppendDelta(nil, keys)
		if err != nil {
			t.Fatalf("AppendDelta rejected strictly ascending keys: %v", err)
		}
		size, err := DeltaSize(keys)
		if err != nil {
			t.Fatalf("DeltaSize rejected strictly ascending keys: %v", err)
		}
		if size != len(enc) {
			t.Fatalf("DeltaSize = %d but AppendDelta wrote %d bytes", size, len(enc))
		}

		dec, consumed, err := DecodeDelta(enc)
		if err != nil {
			t.Fatalf("DecodeDelta failed on own encoding: %v", err)
		}
		if consumed != len(enc) {
			t.Fatalf("DecodeDelta consumed %d of %d bytes", consumed, len(enc))
		}
		if len(dec) != len(keys) {
			t.Fatalf("round trip returned %d keys, want %d", len(dec), len(keys))
		}
		for i := range keys {
			if dec[i] != keys[i] {
				t.Fatalf("key %d corrupted: got %d, want %d", i, dec[i], keys[i])
			}
		}

		// Appending to a non-empty prefix must not disturb the encoding.
		prefixed, err := AppendDelta([]byte{0xAA, 0xBB}, keys)
		if err != nil {
			t.Fatal(err)
		}
		dec2, consumed2, err := DecodeDelta(prefixed[2:])
		if err != nil || consumed2 != len(enc) || len(dec2) != len(keys) {
			t.Fatalf("prefixed round trip diverged: %v (consumed %d)", err, consumed2)
		}
	})
}

// FuzzDecodeDeltaRobust feeds DecodeDelta arbitrary bytes: it must reject
// garbage with an error — never panic — matching the codec package's
// decode-robustness fuzzing for the value streams, and whatever it does it
// must do exactly as the one-byte-at-a-time reference does.
func FuzzDecodeDeltaRobust(f *testing.F) {
	if enc, err := AppendDelta(nil, []uint64{3, 9, 1 << 40}); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	// One seed per branch of the group decode: all four widths in one flag
	// byte with the 16 bytes the fast path wants behind it, the same stream
	// ending inside that window, the escape inside a group, and a zero gap
	// inside a group.
	widths := []uint64{5, 1 << 9, 1 << 17, 1 << 25, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if enc, err := AppendDelta(nil, keysWithGaps(11, widths)); err == nil {
		f.Add(enc)
		f.Add(enc[:len(enc)-9])
		zero := append([]byte(nil), enc...)
		zero[len(zero)-14] = 0
		f.Add(zero)
	}
	widths[5] = 1 << 33
	if enc, err := AppendDelta(nil, keysWithGaps(11, widths)); err == nil {
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameDecode(t, "fuzz input", data)
		keys, _, err := DecodeDelta(data)
		if err != nil {
			return
		}
		for i := 1; i < len(keys); i++ {
			if keys[i] <= keys[i-1] {
				t.Fatalf("DecodeDelta returned non-ascending keys without error")
			}
		}
	})
}
