package keycoding

import (
	"math"
	"testing"
)

// TestDeltaAdversarialPatterns is the losslessness property table: the key
// patterns most likely to break a delta-binary coder — byte-width
// boundaries, escape-code gaps, 32/64-bit edges, long dense runs — must
// all round-trip exactly, and the decoder must consume exactly the bytes
// produced. Keys are the one part of a SketchML message that must survive
// bit-for-bit; any loss here corrupts gradient coordinates silently.
func TestDeltaAdversarialPatterns(t *testing.T) {
	denseRun := func(base uint64, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = base + uint64(i)
		}
		return keys
	}
	sawtooth := make([]uint64, 0, 300)
	for cur, i := uint64(0), 0; i < 100; i++ {
		sawtooth = append(sawtooth, cur, cur+1, cur+2) // dense triple...
		cur += 1 << 33                                 // ...then a huge gap
	}

	cases := []struct {
		name string
		keys []uint64
	}{
		{"empty", nil},
		{"single_zero", []uint64{0}},
		{"single_huge", []uint64{math.MaxUint64 - 1}},
		{"dense_run_from_zero", denseRun(0, 10000)},
		{"dense_run_high_base", denseRun(1<<40, 10000)},
		{"huge_gaps", []uint64{0, 1 << 20, 1 << 40, 1 << 60, math.MaxUint64 - 7}},
		{"gap_byte_boundaries", []uint64{0, 255, 255 + 256, 255 + 256 + 257, 255 + 256 + 257 + 65535, 255 + 256 + 257 + 65535 + 65536}},
		{"max_uint32_crossing", []uint64{math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32, math.MaxUint32 + 1, math.MaxUint32 + 2}},
		{"all_max_uint32_region", denseRun(math.MaxUint32-5000, 5000)},
		{"huge_first_key_then_dense", append([]uint64{1 << 62}, denseRun(1<<62+1, 100)...)},
		{"sawtooth_dense_and_gaps", sawtooth},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := AppendDelta(nil, tc.keys)
			if err != nil {
				t.Fatal(err)
			}
			got, used, err := DecodeDelta(data)
			if err != nil {
				t.Fatal(err)
			}
			if used != len(data) {
				t.Errorf("decode consumed %d of %d bytes", used, len(data))
			}
			if len(got) != len(tc.keys) {
				t.Fatalf("decoded %d keys, want %d", len(got), len(tc.keys))
			}
			for i := range tc.keys {
				if got[i] != tc.keys[i] {
					t.Fatalf("key %d: decoded %d, want %d", i, got[i], tc.keys[i])
				}
			}
		})
	}
}
