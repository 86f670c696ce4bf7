package bitpack

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestBitsFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{16, 4}, {17, 5}, {256, 8}, {257, 9}, {65536, 16},
	}
	for _, c := range cases {
		if got := BitsFor(c.n); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestRoundTripAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := 1; width <= 32; width++ {
		n := 257 // deliberately not a multiple of anything
		vals := make([]uint32, n)
		var max uint64 = 1 << uint(width)
		for i := range vals {
			vals[i] = uint32(rng.Uint64() % max)
		}
		data := AppendPacked(nil, vals, width)
		if len(data) != PackedSize(n, width) {
			t.Errorf("width %d: len=%d, PackedSize=%d", width, len(data), PackedSize(n, width))
		}
		got, used, err := DecodePackedInto(data, n, width, nil)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if used != len(data) {
			t.Errorf("width %d: consumed %d of %d", width, used, len(data))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("width %d: value %d = %d, want %d", width, i, got[i], vals[i])
			}
		}
	}
}

// TestConstructorPanics: a width outside [1, 32] is a caller bug when
// packing, and a wire error when unpacking (the width may have been decoded).
func TestConstructorPanics(t *testing.T) {
	for _, width := range []int{0, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendPacked with width %d did not panic", width)
				}
			}()
			AppendPacked(nil, nil, width)
		}()
	}
	for _, width := range []int{0, 40} {
		if _, _, err := DecodePackedInto(nil, 0, width, nil); err == nil {
			t.Errorf("DecodePackedInto accepted width %d", width)
		}
	}
}

func TestWriterRejectsOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic packing 4 at width 2")
		}
	}()
	AppendPacked(nil, []uint32{4}, 2)
}

func TestWidth32NoOverflowPanic(t *testing.T) {
	data := AppendPacked(nil, []uint32{0xFFFFFFFF}, 32)
	got, _, err := DecodePackedInto(data, 1, 32, nil)
	if err != nil || got[0] != 0xFFFFFFFF {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestReaderExhaustion(t *testing.T) {
	data := AppendPacked(nil, []uint32{1}, 8)
	if got, _, err := DecodePackedInto(data, 1, 8, nil); err != nil || got[0] != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, _, err := DecodePackedInto(data, 2, 8, nil); err == nil {
		t.Error("DecodePackedInto read a second value from a one-byte stream")
	}
}

// TestReadAllRefusesCountBeyondStream: count is typically wire-decoded, and
// DecodePackedInto must refuse one the data's bits cannot hold before sizing
// anything by it. The error alone does not show that — make([]uint32, count)
// succeeds lazily and the first short read errors afterwards — so the test
// also bounds the bytes the call allocates (a runtime.MemStats.TotalAlloc
// delta).
func TestReadAllRefusesCountBeyondStream(t *testing.T) {
	data := AppendPacked(nil, []uint32{1}, 8)
	const n = 1 << 24 // 64 MiB of uint32 over one byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodePackedInto(data, n, 8, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("DecodePackedInto accepted a count the data cannot hold")
	}
	const bound = 4 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("refusing the count allocated %d bytes, want at most %d", got, bound)
	}
	if _, _, err := DecodePackedInto(data, -1, 8, nil); err == nil {
		t.Error("DecodePackedInto accepted a negative count")
	}
}

func TestEmptyStream(t *testing.T) {
	data := AppendPacked(nil, nil, 5)
	if len(data) != 0 {
		t.Errorf("no values packed to %d bytes", len(data))
	}
	got, used, err := DecodePackedInto(data, 0, 5, nil)
	if err != nil || len(got) != 0 || used != 0 {
		t.Errorf("DecodePackedInto(0) = %v, %d, %v", got, used, err)
	}
}

func TestPackingDensity(t *testing.T) {
	// 1000 3-bit values should take 375 bytes, not 1000.
	vals := make([]uint32, 1000)
	for i := range vals {
		vals[i] = uint32(i % 8)
	}
	if got := len(AppendPacked(nil, vals, 3)); got != 375 {
		t.Errorf("1000 3-bit values = %d bytes, want 375", got)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	vals := []uint32{0, 1, 2, 3, 250, 255, 7, 0}
	data := AppendBlock(nil, vals, 8)
	if len(data) != BlockSize(len(vals), 8) {
		t.Errorf("len=%d, BlockSize=%d", len(data), BlockSize(len(vals), 8))
	}
	got, used, err := DecodeBlockInto(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(data) {
		t.Errorf("consumed %d of %d", used, len(data))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d = %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestBlockEmbeddedInLargerBuffer(t *testing.T) {
	data := AppendBlock([]byte{9, 9, 9}, []uint32{5, 6}, 4)
	got, used, err := DecodeBlockInto(data[3:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(data)-3 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("got %v used %d", got, used)
	}
}

func TestDecodeBlockErrors(t *testing.T) {
	if _, _, err := DecodeBlockInto([]byte{1, 2}, nil); err == nil {
		t.Error("truncated header should error")
	}
	data := AppendBlock(nil, []uint32{1, 2, 3}, 8)
	if _, _, err := DecodeBlockInto(data[:len(data)-1], nil); err == nil {
		t.Error("truncated body should error")
	}
	bad := append([]byte(nil), data...)
	bad[4] = 99 // invalid width
	if _, _, err := DecodeBlockInto(bad, nil); err == nil {
		t.Error("bad width should error")
	}
}

// Property: round trip is identity for any values masked to width.
func TestQuickRoundTrip(t *testing.T) {
	err := quick.Check(func(raw []uint32, w8 uint8) bool {
		width := int(w8)%32 + 1
		var mask uint32 = 0xFFFFFFFF
		if width < 32 {
			mask = 1<<uint(width) - 1
		}
		vals := make([]uint32, len(raw))
		for i, v := range raw {
			vals[i] = v & mask
		}
		data := AppendBlock(nil, vals, width)
		got, _, err := DecodeBlockInto(data, nil)
		if err != nil {
			return false
		}
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkAppendPacked8Bit(b *testing.B) {
	vals := make([]uint32, 1<<16)
	for i := range vals {
		vals[i] = uint32(i & 255)
	}
	var dst []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = AppendPacked(dst[:0], vals, 8)
	}
}

func BenchmarkDecodePacked8Bit(b *testing.B) {
	const n = 1 << 16
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(i & 255)
	}
	data := AppendPacked(nil, vals, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodePackedInto(data, n, 8, vals); err != nil {
			b.Fatal(err)
		}
	}
}
