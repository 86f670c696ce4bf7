package codec

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"testing"

	"sketchml/internal/gradient"
)

// These tests feed structurally corrupt messages to both consumers of the
// pane decoder — DecodeInto and MergeInto, which decodes its two inputs
// through the same path. A hostile message must produce a clean error or
// a valid result, never a panic or an allocation sized by the wire. They
// run under -race at every race-matrix point (make race-matrix).

// hostileMessage encodes a 300-nnz gradient at the default options, the
// message the corruption tests below mutate.
func hostileMessage(t *testing.T, seed int64) (*SketchML, []byte) {
	t.Helper()
	c := MustSketchML(DefaultOptions())
	msg, err := c.Encode(randomGradient(rand.New(rand.NewSource(seed)), 20000, 300))
	if err != nil {
		t.Fatal(err)
	}
	return c, msg
}

// checkHostile decodes mut, and merges it with the valid message msg; each
// must fail or yield a valid gradient.
func checkHostile(t *testing.T, c *SketchML, msg, mut []byte, what string) {
	t.Helper()
	var dec gradient.Sparse
	if err := c.DecodeInto(mut, &dec); err == nil {
		if verr := dec.Validate(); verr != nil {
			t.Fatalf("%s: decoded invalid gradient: %v", what, verr)
		}
	}
	if merged, err := c.MergeInto(nil, msg, mut); err == nil {
		if err := c.DecodeInto(merged, &dec); err != nil {
			t.Fatalf("%s: merge emitted an undecodable message: %v", what, err)
		}
		if verr := dec.Validate(); verr != nil {
			t.Fatalf("%s: merge emitted an invalid gradient: %v", what, verr)
		}
	}
}

// TestParallelDecodeCorruptPaneBoundary overwrites each byte position of a
// valid message in turn and truncates at each position, walking the pane
// decoder through every misalignment of the pane and group boundaries.
func TestParallelDecodeCorruptPaneBoundary(t *testing.T) {
	c, msg := hostileMessage(t, 11)
	mut := make([]byte, len(msg))
	for pos := 0; pos < len(msg); pos++ {
		copy(mut, msg)
		mut[pos] = 0xFF
		checkHostile(t, c, msg, mut, "byte 0xFF")
		checkHostile(t, c, msg, msg[:pos], "truncation")
	}
}

// TestParallelDecodeOversizedGroupCount patches the packed group sketches'
// header's group-count field. Every row must be refused before anything is
// sized by it (minmax.DecodeGroupedPackedReuse): 1<<20 and 0xFFFFFFFF by
// the header's bound of 1<<16 groups, and 1<<16 itself because that many
// groups' cells overrun the bytes that follow. The 1<<20 row would size 8 MB
// of group slots on any host, so without the bound it fails here by name,
// where 0xFFFFFFFF can succeed lazily on a large host or kill the test
// binary on a small one. Skipped under -race: the detector makes sync.Pool
// drop what it is handed at random, so a call may refill the pooled decode
// scratch and its allocation reads past the bound.
func TestParallelDecodeOversizedGroupCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation readings are meaningless under the race detector")
	}
	c, msg := hostileMessage(t, 12)
	// Wire layout: tag(1) flags(1) dim(8) count(4) seed(8) buckets(4) = 26
	// bytes of message header, then pane 0: paneCount(4) nMeans(4)
	// means(8*nMeans), then the packed sketches' header, which leads with
	// the group count u32.
	const hdr = 26
	if len(msg) < hdr+8 {
		t.Fatalf("message unexpectedly short: %d bytes", len(msg))
	}
	paneCount := binary.LittleEndian.Uint32(msg[hdr:])
	if paneCount == 0 {
		t.Fatal("pane 0 is empty; pick a seed that produces positive values")
	}
	nMeans := int(binary.LittleEndian.Uint32(msg[hdr+4:]))
	groupCountOff := hdr + 8 + 8*nMeans
	if len(msg) < groupCountOff+4 {
		t.Fatalf("message too short for grouped header at %d", groupCountOff)
	}
	mut := append([]byte(nil), msg...)
	const bound = 64 << 10
	for _, groups := range []uint32{1 << 20, 0xFFFFFFFF, 1 << 16} {
		binary.LittleEndian.PutUint32(mut[groupCountOff:], groups)
		var decErr, mergeErr error
		decAlloc := allocatedBytes(func() { _, decErr = c.Decode(mut) })
		mergeAlloc := allocatedBytes(func() { _, mergeErr = c.MergeInto(nil, msg, mut) })
		if decErr == nil {
			t.Fatalf("decoder accepted a grouped header claiming %d groups", groups)
		}
		if mergeErr == nil {
			t.Fatalf("merge accepted a grouped header claiming %d groups", groups)
		}
		if got := max(decAlloc, mergeAlloc); got > bound {
			t.Fatalf("refusing %d groups allocated %d bytes, want at most %d", groups, got, bound)
		}
	}
}

// TestDecodeOversizedIndexCount patches the count of pane 0's bit-packed
// index block in a MinMax-off message (the layout every merge emits). The
// block decoder must refuse a count its bytes cannot hold before sizing the
// pooled index buffer by it; a decoder that trusts it reads past the message.
// The allocation is bounded outside -race only, where the pool keeps what it
// is handed.
func TestDecodeOversizedIndexCount(t *testing.T) {
	opts := DefaultOptions()
	opts.MinMax = false
	c := MustSketchML(opts)
	msg, err := c.Encode(randomGradient(rand.New(rand.NewSource(13)), 20000, 300))
	if err != nil {
		t.Fatal(err)
	}
	// Wire layout: 26 bytes of message header (see
	// TestParallelDecodeOversizedGroupCount), then pane 0: paneCount(4)
	// nMeans(4) means(8*nMeans), its key list, and its index block, which
	// leads with the count u32.
	r := reader{data: msg, off: 26}
	paneCount, err := r.u32()
	if err != nil || paneCount == 0 {
		t.Fatalf("pane 0 holds %d entries (%v); pick a seed with positive values", paneCount, err)
	}
	nMeans, err := r.u32()
	if err != nil {
		t.Fatal(err)
	}
	r.off += 8 * int(nMeans)
	if _, err := decodeKeysInto(&r, make([]uint64, 0, paneCount)); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(msg[r.off:]); got != paneCount {
		t.Fatalf("index block at %d counts %d, want the pane's %d", r.off, got, paneCount)
	}
	mut := append([]byte(nil), msg...)
	const bound = 64 << 10
	for _, count := range []uint32{1 << 20, 0xFFFFFFFF} {
		binary.LittleEndian.PutUint32(mut[r.off:], count)
		var decErr, mergeErr error
		decAlloc := allocatedBytes(func() { _, decErr = c.Decode(mut) })
		mergeAlloc := allocatedBytes(func() { _, mergeErr = c.MergeInto(nil, msg, mut) })
		if decErr == nil || mergeErr == nil {
			t.Fatalf("an index block claiming %d values was accepted: decode %v, merge %v", count, decErr, mergeErr)
		}
		if got := max(decAlloc, mergeAlloc); !raceEnabled && got > bound {
			t.Fatalf("refusing %d values allocated %d bytes, want at most %d", count, got, bound)
		}
	}
}

// allocatedBytes returns the heap bytes f allocates, as the difference of
// two runtime.MemStats.TotalAlloc readings. An error alone does not show
// that a decoder refused a hostile count: a make sized by it succeeds
// lazily (untouched pages) and the first short read errors afterwards.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestZipMLDecodeOversizedCount patches the entry count of a header-only
// ZipML message to 0xFFFFFFFF. Decode must refuse it against the bytes that
// remain before anything is sized by it: NewSparse(dim, count) would
// reserve 64 GiB of key and value capacity straight from the header.
func TestZipMLDecodeOversizedCount(t *testing.T) {
	c := &ZipML{Bits: 8}
	msg, err := c.Encode(gradient.NewSparse(1000, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Wire layout: tag(1) bits(1) flags(1) dim(8), then the count u32.
	const countOff = 11
	binary.LittleEndian.PutUint32(msg[countOff:], 0xFFFFFFFF)
	got := allocatedBytes(func() { _, err = c.Decode(msg) })
	if err == nil {
		t.Fatal("decoder accepted a 4-billion entry count over an empty body")
	}
	const bound = 4 << 10
	if got > bound {
		t.Errorf("refusing the count allocated %d bytes, want at most %d", got, bound)
	}
}
