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
		w := NewWriter(width)
		for _, v := range vals {
			w.Write(v)
		}
		data := w.Bytes()
		if len(data) != PackedSize(n, width) {
			t.Errorf("width %d: len=%d, PackedSize=%d", width, len(data), PackedSize(n, width))
		}
		got, err := NewReader(data, width).ReadAll(n)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("width %d: value %d = %d, want %d", width, i, got[i], vals[i])
			}
		}
	}
}

func TestWriterRejectsOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic writing 4 into 2-bit writer")
		}
	}()
	NewWriter(2).Write(4)
}

func TestWidth32NoOverflowPanic(t *testing.T) {
	w := NewWriter(32)
	w.Write(0xFFFFFFFF)
	got, err := NewReader(w.Bytes(), 32).Read()
	if err != nil || got != 0xFFFFFFFF {
		t.Fatalf("got %d, %v", got, err)
	}
}

func TestReaderExhaustion(t *testing.T) {
	w := NewWriter(8)
	w.Write(1)
	r := NewReader(w.Bytes(), 8)
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Error("expected exhaustion error")
	}
}

// TestReadAllRefusesCountBeyondStream: n is typically a wire-decoded count,
// and ReadAll must refuse one the remaining bits cannot hold before sizing
// anything by it. The error alone does not show that — make([]uint32, n)
// succeeds lazily and the first short Read errors afterwards — so the test
// also bounds the bytes the call allocates (a runtime.MemStats.TotalAlloc
// delta).
func TestReadAllRefusesCountBeyondStream(t *testing.T) {
	w := NewWriter(8)
	w.Write(1)
	const n = 1 << 24 // 64 MiB of uint32 over a one-byte stream
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(w.Bytes(), 8).ReadAll(n)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadAll accepted a count the stream cannot hold")
	}
	const bound = 4 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("refusing the count allocated %d bytes, want at most %d", got, bound)
	}
}

func TestEmptyStream(t *testing.T) {
	w := NewWriter(5)
	data := w.Bytes()
	if len(data) != 0 {
		t.Errorf("empty writer produced %d bytes", len(data))
	}
	got, err := NewReader(data, 5).ReadAll(0)
	if err != nil || len(got) != 0 {
		t.Errorf("ReadAll(0) = %v, %v", got, err)
	}
}

func TestPackingDensity(t *testing.T) {
	// 1000 3-bit values should take 375 bytes, not 1000.
	w := NewWriter(3)
	for i := 0; i < 1000; i++ {
		w.Write(uint32(i % 8))
	}
	if got := len(w.Bytes()); got != 375 {
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

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewWriter(0) },
		func() { NewWriter(33) },
		func() { NewReader(nil, 0) },
		func() { NewReader(nil, 40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
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

func BenchmarkWrite8Bit(b *testing.B) {
	w := NewWriter(8)
	for i := 0; i < b.N; i++ {
		w.Write(uint32(i & 255))
	}
}

func BenchmarkRead8Bit(b *testing.B) {
	w := NewWriter(8)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		w.Write(uint32(i & 255))
	}
	data := w.Bytes()
	b.ResetTimer()
	r := NewReader(data, 8)
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			r = NewReader(data, 8)
		}
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}
