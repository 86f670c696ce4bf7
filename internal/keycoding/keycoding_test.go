package keycoding

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func ascendingKeys(rng *rand.Rand, n int, maxGap int) []uint64 {
	keys := make([]uint64, n)
	var cur uint64
	for i := range keys {
		cur += uint64(rng.Intn(maxGap)) + 1
		keys[i] = cur
	}
	return keys
}

func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 100, 4097} {
		keys := ascendingKeys(rng, n, 1000)
		data, err := AppendDelta(nil, keys)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, used, err := DecodeDelta(data)
		if err != nil {
			t.Fatalf("n=%d decode: %v", n, err)
		}
		if used != len(data) {
			t.Errorf("n=%d: consumed %d of %d", n, used, len(data))
		}
		if len(got) != len(keys) {
			t.Fatalf("n=%d: got %d keys", n, len(got))
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("n=%d: key %d = %d, want %d", n, i, got[i], keys[i])
			}
		}
	}
}

func TestDeltaPaperExample(t *testing.T) {
	// Figure 7's running example.
	keys := []uint64{702, 735, 1244, 2516, 3536, 3786, 4187, 4195}
	data, err := AppendDelta(nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], keys[i])
		}
	}
	// Deltas: 33, 509, 1272, 1020, 250, 401, 8 -> widths 1,2,2,2,1,2,1 = 11
	// bytes + 2 flag bytes + header 12.
	if want := 4 + 8 + 2 + 11; len(data) != want {
		t.Errorf("encoded size = %d, want %d", len(data), want)
	}
}

func TestDeltaWideGaps(t *testing.T) {
	keys := []uint64{0, 255, 256, 65536 + 256, 1<<24 + 65536 + 256, 1<<32 - 1 + (1 << 24) + 65536 + 256}
	data, err := AppendDelta(nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], keys[i])
		}
	}
}

func TestDeltaLargeFirstKey(t *testing.T) {
	keys := []uint64{1 << 60, 1<<60 + 5}
	data, err := AppendDelta(nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1<<60 || got[1] != 1<<60+5 {
		t.Fatalf("got %v", got)
	}
}

func TestDeltaRejectsUnsorted(t *testing.T) {
	if _, err := AppendDelta(nil, []uint64{5, 5}); !errors.Is(err, ErrNotAscending) {
		t.Errorf("duplicate keys: err = %v, want ErrNotAscending", err)
	}
	if _, err := AppendDelta(nil, []uint64{5, 3}); !errors.Is(err, ErrNotAscending) {
		t.Errorf("descending keys: err = %v, want ErrNotAscending", err)
	}
}

func TestDeltaHugeGapsEscape(t *testing.T) {
	// Gaps at and beyond 2^32-1 use the 8-byte escape and must round-trip.
	keys := []uint64{0, 1<<32 - 1, 1<<32 - 1 + (1<<32 - 2), 1 << 60, 1<<60 + 1}
	data, err := AppendDelta(nil, keys)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeDelta(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d = %d, want %d", i, got[i], keys[i])
		}
	}
	size, err := DeltaSize(keys)
	if err != nil {
		t.Fatal(err)
	}
	if size != len(data) {
		t.Errorf("DeltaSize = %d, encoded = %d", size, len(data))
	}
}

func TestDeltaSizeMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 500} {
		keys := ascendingKeys(rng, n, 100000)
		data, err := AppendDelta(nil, keys)
		if err != nil {
			t.Fatal(err)
		}
		size, err := DeltaSize(keys)
		if err != nil {
			t.Fatal(err)
		}
		if size != len(data) {
			t.Errorf("n=%d: DeltaSize=%d, actual=%d", n, size, len(data))
		}
	}
}

func TestBytesPerKeySmallGaps(t *testing.T) {
	// Dense-ish keys (gap < 256): ~1 byte + 0.25 flag = ~1.25 bytes/key,
	// matching the paper's measured 1.25-1.27.
	rng := rand.New(rand.NewSource(3))
	keys := ascendingKeys(rng, 100000, 128)
	size, err := DeltaSize(keys)
	if err != nil {
		t.Fatal(err)
	}
	// The 4-byte count header amortizes away, as in the paper's figure.
	if bpk := float64(size-4) / float64(len(keys)); bpk < 1.2 || bpk > 1.35 {
		t.Errorf("bytes/key = %.3f, want ~1.25", bpk)
	}
}

func TestDeltaBeats4ByteBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := ascendingKeys(rng, 50000, 200)
	size, err := DeltaSize(keys)
	if err != nil {
		t.Fatal(err)
	}
	baseline := 4 * len(keys)
	if ratio := float64(baseline) / float64(size); ratio < 2.5 {
		t.Errorf("compression vs int32 = %.2fx, want > 2.5x", ratio)
	}
}

func TestDecodeDeltaErrors(t *testing.T) {
	if _, _, err := DecodeDelta([]byte{1}); err == nil {
		t.Error("truncated count should error")
	}
	keys := []uint64{1, 2, 300}
	data, _ := AppendDelta(nil, keys)
	for cut := 5; cut < len(data); cut++ {
		if _, _, err := DecodeDelta(data[:cut]); err == nil {
			t.Errorf("truncation at %d should error", cut)
		}
	}
}

// TestVarintMatchesUvarint pins AppendVarint's layout, which the key-codec
// ablation sizes with: a little-endian uint32 count, then the first key and
// every later gap as encoding/binary uvarints.
func TestVarintMatchesUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 100, 3000} {
		keys := ascendingKeys(rng, n, 1<<20)
		got, err := AppendVarint(nil, keys)
		if err != nil {
			t.Fatal(err)
		}
		want := binary.LittleEndian.AppendUint32(nil, uint32(n))
		var prev uint64
		for _, k := range keys {
			want = binary.AppendUvarint(want, k-prev)
			prev = k
		}
		if !bytes.Equal(got, want) {
			t.Errorf("n=%d: AppendVarint differs from count + uvarint gaps", n)
		}
	}
}

func TestVarintRejectsUnsorted(t *testing.T) {
	if _, err := AppendVarint(nil, []uint64{9, 2}); !errors.Is(err, ErrNotAscending) {
		t.Errorf("err = %v, want ErrNotAscending", err)
	}
}

func TestDeltaBeatsBitmapWhenSparse(t *testing.T) {
	// Appendix A.3: delta-binary wins over bitmap for sparse gradients.
	const dim = 10_000_000
	rng := rand.New(rand.NewSource(6))
	present := map[uint64]bool{}
	for len(present) < 5000 { // 0.05% sparsity
		present[uint64(rng.Int63n(dim))] = true
	}
	keys := make([]uint64, 0, len(present))
	for k := range present {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	deltaSize, err := DeltaSize(keys)
	if err != nil {
		t.Fatal(err)
	}
	if deltaSize >= BitmapSize(dim) {
		t.Errorf("delta %d >= bitmap %d for sparse keys", deltaSize, BitmapSize(dim))
	}
}

// Property: delta codec round-trips any strictly ascending key set with
// bounded gaps.
func TestQuickDeltaRoundTrip(t *testing.T) {
	err := quick.Check(func(gaps []uint32, start uint32) bool {
		keys := make([]uint64, len(gaps))
		cur := uint64(start)
		for i, g := range gaps {
			cur += uint64(g) + 1
			keys[i] = cur
		}
		data, err := AppendDelta(nil, keys)
		if err != nil {
			return false
		}
		got, _, err := DecodeDelta(data)
		if err != nil || len(got) != len(keys) {
			return false
		}
		for i := range keys {
			if got[i] != keys[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkDeltaEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	keys := ascendingKeys(rng, 100000, 200)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendDelta(nil, keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	keys := ascendingKeys(rng, 100000, 200)
	data, _ := AppendDelta(nil, keys)
	dst := make([]uint64, len(keys))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeDeltaInto(data, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
