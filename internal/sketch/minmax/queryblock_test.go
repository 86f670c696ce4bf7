package minmax

import (
	"math/rand"
	"slices"
	"testing"
)

// queryOneKey is the Max protocol as Query ran it before it became the
// one-key case of QueryBlock: per key, hash every row through the family,
// skip Empty bins, keep the largest. The block query must agree with it
// key for key.
func queryOneKey(s *Sketch, key uint64) (uint16, bool) {
	best := uint16(Empty)
	for r := 0; r < s.rows; r++ {
		c := s.cells[r*s.cols+s.family.Index(r, key)]
		if c == Empty {
			continue
		}
		if best == Empty || c > best {
			best = c
		}
	}
	if best == Empty {
		return 0, false
	}
	return best, true
}

// TestQueryBlockMatchesPerKeyQuery fills sketches of both serialized cell
// widths to every load from empty to crowded, sends them through the wire
// format (the decoder queries sketches rebuilt by DecodeGroupedReuse), and
// holds the block query of inserted and never-inserted keys alike to the
// per-key reference — including the keys whose every bin is Empty and the
// largest storable index, which Empty + 1 must not be confused with.
func TestQueryBlockMatchesPerKeyQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, tc := range []struct {
		name                        string
		rows, cols, buckets, groups int
		inserts                     int
	}{
		{"empty", 2, 64, 256, 8, 0},
		{"sparse 1-byte cells", 2, 256, 256, 8, 40},
		{"crowded 1-byte cells", 2, 64, 256, 8, 2000},
		{"one row", 1, 128, 256, 4, 300},
		{"three rows", 3, 128, 256, 16, 300},
		{"2-byte cells", 2, 512, 1 << 16, 2, 400},
		{"2-byte cells, one group", 2, 512, MaxIndex + 1, 1, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := rng.Uint64()
			g := NewGrouped(tc.rows, tc.cols, tc.buckets, tc.groups, seed)
			byGroup := make([][]uint64, g.NumGroups())
			for i := 0; i < tc.inserts; i++ {
				key, bucket := rng.Uint64()>>rng.Intn(60), rng.Intn(tc.buckets)
				if i == 0 {
					bucket = tc.buckets - 1 // the top index of the last group
				}
				grp := g.Insert(key, bucket)
				byGroup[grp] = append(byGroup[grp], key)
			}
			wire, err := g.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			dec, _, err := DecodeGroupedReuse(wire, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, sketches := range [][]*Sketch{g.groups, dec.groups} {
				for grp, s := range sketches {
					keys := append([]uint64(nil), byGroup[grp]...)
					for i := 0; i < 50; i++ {
						keys = append(keys, rng.Uint64()) // strangers: some hit only Empty bins
					}
					cand := make([]uint16, len(keys)+3)
					for i := range cand {
						cand[i] = 0xAAAA // QueryBlock must not trust what it is handed
					}
					s.QueryBlock(keys, cand)
					for i, k := range keys {
						want, ok := queryOneKey(s, k)
						if !ok {
							want = Empty // so that want+1 wraps to the block's "missing"
						}
						if cand[i] != want+1 {
							t.Fatalf("group %d key %d: cand %d, per-key query says %d (found %v)", grp, k, cand[i], want, ok)
						}
						got, gotOK := s.Query(k)
						if gotOK != ok || (ok && got != want) {
							t.Fatalf("group %d key %d: Query = %d,%v, reference %d,%v", grp, k, got, gotOK, want, ok)
						}
					}
					for _, c := range cand[len(keys):] {
						if c != 0xAAAA {
							t.Fatal("QueryBlock wrote past len(keys)")
						}
					}
				}
			}
		})
	}
}

// TestGroupedQueryBlockBucket pins the arithmetic the codec does with a
// block's result: bucket = min(base + cand − 1, NumBuckets() − 1) is what
// Grouped.Query returns, and a group that does not exist reports every key
// missing.
func TestGroupedQueryBlockBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// 10 buckets in 4 groups of 3: the last group's indexes 1 and 2 lie past
	// the last bucket and clamp to it.
	g := NewGrouped(2, 400, 10, 4, 99)
	keys := make([][]uint64, g.NumGroups())
	for i := 0; i < 200; i++ {
		k := rng.Uint64()
		grp := g.Insert(k, rng.Intn(10))
		keys[grp] = append(keys[grp], k)
	}
	g.groups[3].Insert(12345, 2) // as a hostile sketch would hold
	keys[3] = append(keys[3], 12345)
	for grp, ks := range keys {
		cand := make([]uint16, len(ks))
		base := g.QueryBlock(grp, ks, cand)
		for i, k := range ks {
			want, ok := g.Query(grp, k)
			if !ok || cand[i] == 0 {
				t.Fatalf("group %d: inserted key %d missing", grp, k)
			}
			if got := min(base+int(cand[i])-1, g.NumBuckets()-1); got != want {
				t.Fatalf("group %d key %d: block says bucket %d, Query %d", grp, k, got, want)
			}
		}
	}
	if b, ok := g.Query(3, 12345); !ok || b != 9 {
		t.Fatalf("index past the last bucket: Query = %d,%v, want 9,true", b, ok)
	}
	for _, grp := range []int{-1, g.NumGroups()} {
		cand := []uint16{7, 7}
		g.QueryBlock(grp, []uint64{1, 2}, cand)
		if cand[0] != 0 || cand[1] != 0 {
			t.Fatalf("group %d does not exist, yet cand = %v", grp, cand)
		}
	}
}

// TestInsertBlockMatchesPerKeyInsert holds the block insert to key-by-key
// Insert: the same (key, index) pairs, repeated keys and the largest
// storable index among them, leave the same cells whether they go in one
// at a time or as a few blocks of any size in any order. An index past
// MaxIndex anywhere in a block is refused before a cell moves.
func TestInsertBlockMatchesPerKeyInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, tc := range []struct {
		name       string
		rows, cols int
		n, top     int // pairs, and the largest index drawn
	}{
		{"empty", 2, 64, 0, 255},
		{"sparse", 2, 256, 40, 255},
		{"crowded", 2, 64, 3000, 255},
		{"one row", 1, 128, 500, 31},
		{"three rows", 3, 128, 500, 31},
		{"2-byte indexes", 2, 512, 800, MaxIndex},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := rng.Uint64()
			keys, idx := make([]uint64, tc.n), make([]uint16, tc.n)
			for i := range keys {
				keys[i], idx[i] = rng.Uint64()>>rng.Intn(60), uint16(rng.Intn(tc.top+1))
				if i > 0 && rng.Intn(4) == 0 {
					keys[i] = keys[rng.Intn(i)] // a repeated key, maybe a lower index
				}
			}
			if tc.n > 0 {
				idx[0] = uint16(tc.top)
			}
			want := New(tc.rows, tc.cols, seed)
			for i, k := range keys {
				want.Insert(k, idx[i])
			}
			whole := New(tc.rows, tc.cols, seed)
			whole.InsertBlock(keys, append(idx, 7, 7)) // idx longer than keys
			pieces := New(tc.rows, tc.cols, seed)
			cuts := []int{0, tc.n / 3, tc.n / 2, tc.n}
			for _, p := range rng.Perm(len(cuts) - 1) {
				pieces.InsertBlock(keys[cuts[p]:cuts[p+1]], idx[cuts[p]:cuts[p+1]])
			}
			for _, got := range []*Sketch{whole, pieces} {
				if !slices.Equal(got.cells, want.cells) {
					t.Fatal("block insert left other cells than key-by-key Insert")
				}
			}
			defer func() {
				if recover() == nil {
					t.Fatal("index past MaxIndex accepted")
				}
				if !slices.Equal(whole.cells, want.cells) {
					t.Fatal("a refused block moved a cell")
				}
			}()
			whole.InsertBlock([]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}, []uint16{0, 0, Empty})
		})
	}
}
