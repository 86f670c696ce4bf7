package minmax

import (
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sketchml/internal/bitpack"
)

// TestGroupedPackedRoundTrip sends grouped sketches of several shapes
// through AppendPacked and DecodeGroupedPackedReuse: the size is the header
// and BitsFor(bpg+1) bits a cell, every cell comes back as it was (Empty and
// the top index of a group included), and QueryEach over keys of mixed
// groups gives what each group's own QueryBlock gives — 0 for a group past
// the last.
func TestGroupedPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var reused *Grouped
	for _, tc := range []struct {
		name                        string
		rows, cols, buckets, groups int
		inserts                     int
	}{
		{"empty", 2, 64, 256, 8, 0},
		{"default shape", 2, 400, 256, 7, 1000},
		{"one group", 2, 128, 256, 1, 300},
		{"one bucket a group", 3, 64, 8, 8, 200},
		{"wide groups", 2, 256, MaxIndex + 1, 2, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := rng.Uint64()
			g := NewGrouped(tc.rows, tc.cols, tc.buckets, tc.groups, seed)
			var keys []uint64
			var grp []uint32
			for i := 0; i < tc.inserts; i++ {
				key, bucket := rng.Uint64()>>rng.Intn(60), rng.Intn(tc.buckets)
				if i == 0 {
					bucket = tc.buckets - 1 // the top index of the last group
				}
				keys = append(keys, key)
				grp = append(grp, uint32(g.Insert(key, bucket)))
			}
			wire, err := g.AppendPacked([]byte{0xEE})
			if err != nil {
				t.Fatal(err)
			}
			wire = wire[1:]
			cells := g.NumGroups() * len(g.groups[0].cells)
			if want := packedHeader + bitpack.PackedSize(cells, bitpack.BitsFor(g.BucketsPerGroup()+1)); len(wire) != want {
				t.Errorf("%d bytes, want %d", len(wire), want)
			}
			dec, used, err := DecodeGroupedPackedReuse(append(wire, 0xEE), seed, reused)
			if err != nil {
				t.Fatal(err)
			}
			reused = dec
			if used != len(wire) {
				t.Errorf("consumed %d of %d", used, len(wire))
			}
			if dec.NumGroups() != g.NumGroups() || dec.NumBuckets() != g.NumBuckets() || dec.BucketsPerGroup() != g.BucketsPerGroup() {
				t.Fatalf("shape %d/%d/%d, want %d/%d/%d", dec.NumGroups(), dec.NumBuckets(), dec.BucketsPerGroup(),
					g.NumGroups(), g.NumBuckets(), g.BucketsPerGroup())
			}
			for i, s := range g.groups {
				if !slices.Equal(dec.groups[i].cells, s.cells) {
					t.Fatalf("group %d: cells differ after the round trip", i)
				}
			}
			for i := 0; i < 50; i++ { // strangers, and keys sent to a group that does not exist
				keys = append(keys, rng.Uint64())
				grp = append(grp, uint32(rng.Intn(g.NumGroups()+2)))
			}
			cand := make([]uint16, len(keys))
			dec.QueryEach(keys, grp, cand)
			for i, k := range keys {
				var one [1]uint16 // stays 0 for a group past the last
				if int(grp[i]) < dec.NumGroups() {
					dec.groups[grp[i]].QueryBlock([]uint64{k}, one[:])
				}
				if cand[i] != one[0] {
					t.Fatalf("key %d in group %d: QueryEach %d, QueryBlock %d", k, grp[i], cand[i], one[0])
				}
			}
		})
	}
}

// TestGroupedPackedRejects feeds DecodeGroupedPackedReuse hostile bytes:
// each is an error, and none sizes anything by a header field the bytes
// cannot back.
func TestGroupedPackedRejects(t *testing.T) {
	g := NewGrouped(2, 64, 16, 2, 9)
	g.Insert(1, 3)
	g.Insert(2, 12)
	wire, err := g.AppendPacked(nil)
	if err != nil {
		t.Fatal(err)
	}
	field := func(i int, v uint32) []byte {
		m := slices.Clone(wire)
		binary.LittleEndian.PutUint32(m[4*i:], v)
		return m
	}
	// Cells are 4 bits (bpg 8); the first byte holds cells 0 and 1 of group 0.
	overIndex := slices.Clone(wire)
	overIndex[packedHeader] = 0x0A // a stored index of 9 in a group of 8
	for _, tc := range []struct {
		name string
		msg  []byte
	}{
		{"empty", nil},
		{"truncated header", wire[:packedHeader-1]},
		{"truncated cells", wire[:len(wire)-1]},
		{"no groups", field(0, 0)},
		{"too many groups", field(0, 1<<16+1)},
		{"no buckets", field(1, 0)},
		{"no buckets per group", field(2, 0)},
		{"buckets per group past MaxIndex", field(2, MaxIndex+2)},
		{"no rows", field(3, 0)},
		{"rows past the limit", field(3, 1<<16+1)},
		{"columns past the limit", field(4, 1<<30+1)},
		{"cells the bytes cannot hold", field(4, 1<<30)},
		{"groups the bytes cannot hold", field(0, 1<<16)},
		{"index past the group", overIndex},
	} {
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err = DecodeGroupedPackedReuse(tc.msg, 9, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		// A refused header allocates the error; a refused cell also the
		// sketch the cells were read into, at the honest header's size.
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
			t.Errorf("%s: refusing allocated %d bytes", tc.name, got)
		}
	}
}
