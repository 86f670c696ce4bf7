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

// TestQueryBlockMatchesPerKeyQuery fills sketches whose indexes fit a byte
// and sketches whose indexes do not (the cell widths the names give are the
// byte-cell layout's) to every load from empty to crowded, sends them
// through the wire format (the decoder queries sketches rebuilt by
// DecodeGroupedPackedReuse), and holds the block query of inserted and
// never-inserted keys alike to the per-key reference — including the keys
// whose every bin is Empty and the largest storable index, which Empty + 1
// must not be confused with.
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
			wire, err := g.AppendPacked(nil)
			if err != nil {
				t.Fatal(err)
			}
			dec, _, err := DecodeGroupedPackedReuse(wire, seed, nil)
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

// TestGroupedQueryBlockBucket pins the arithmetic the codec does with the
// grouped block query's result: bucket = min(grp·BucketsPerGroup() + cand −
// 1, NumBuckets() − 1) is what Grouped.Query returns, and a group that does
// not exist reports every key missing to QueryEach and Query alike.
func TestGroupedQueryBlockBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// 10 buckets in 4 groups of 3: the last group's indexes 1 and 2 lie past
	// the last bucket and clamp to it.
	g := NewGrouped(2, 400, 10, 4, 99)
	var keys []uint64
	var grp []uint32
	for i := 0; i < 200; i++ {
		k := rng.Uint64()
		keys, grp = append(keys, k), append(grp, uint32(g.Insert(k, rng.Intn(10))))
	}
	g.groups[3].Insert(12345, 2) // as a hostile sketch would hold
	keys, grp = append(keys, 12345), append(grp, 3)
	cand := make([]uint16, len(keys))
	g.QueryEach(keys, grp, cand)
	for i, k := range keys {
		want, ok := g.Query(int(grp[i]), k)
		if !ok || cand[i] == 0 {
			t.Fatalf("group %d: inserted key %d missing", grp[i], k)
		}
		if got := min(int(grp[i])*g.BucketsPerGroup()+int(cand[i])-1, g.NumBuckets()-1); got != want {
			t.Fatalf("group %d key %d: block says bucket %d, Query %d", grp[i], k, got, want)
		}
	}
	if b, ok := g.Query(3, 12345); !ok || b != 9 {
		t.Fatalf("index past the last bucket: Query = %d,%v, want 9,true", b, ok)
	}
	cand = []uint16{7, 7}
	g.QueryEach([]uint64{1, 2}, []uint32{uint32(g.NumGroups()), 1 << 31}, cand)
	if cand[0] != 0 || cand[1] != 0 {
		t.Fatalf("groups past the last, yet cand = %v", cand)
	}
	for _, grp := range []int{-1, g.NumGroups()} {
		if _, ok := g.Query(grp, keys[0]); ok {
			t.Fatalf("group %d does not exist, yet Query found key %d", grp, keys[0])
		}
	}
}

// TestInsertBlockMatchesPerKeyInsert holds the grouped block insert,
// InsertEach, to key-by-key Insert: the same (key, bucket) pairs, repeated
// keys and the largest storable index among them, leave the same cells
// whether they go in one at a time or as a few lists of any size in any
// order. A group or an index out of range anywhere in a list is refused
// before a cell moves.
func TestInsertBlockMatchesPerKeyInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, tc := range []struct {
		name                     string
		rows, cols, buckets, grp int
		n                        int // pairs
	}{
		{"empty", 2, 64, 256, 8, 0},
		{"sparse", 2, 256, 256, 8, 40},
		{"crowded", 2, 64, 256, 8, 3000},
		{"one row", 1, 128, 32, 4, 500},
		{"three rows", 3, 128, 32, 3, 500},
		{"2-byte indexes", 2, 512, MaxIndex + 1, 1, 800},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := rng.Uint64()
			want := NewGrouped(tc.rows, tc.cols, tc.buckets, tc.grp, seed)
			bpg := want.BucketsPerGroup()
			keys, grp, rel := make([]uint64, tc.n), make([]uint32, tc.n), make([]uint16, tc.n)
			for i := range keys {
				keys[i] = rng.Uint64() >> rng.Intn(60)
				if i > 0 && rng.Intn(4) == 0 {
					keys[i] = keys[rng.Intn(i)] // a repeated key, maybe a lower index
				}
				b := rng.Intn(tc.buckets)
				if i == 0 {
					b = tc.buckets - 1 // the top index of the last group
				}
				grp[i] = uint32(want.Insert(keys[i], b))
				rel[i] = uint16(b - int(grp[i])*bpg)
			}
			whole := NewGrouped(tc.rows, tc.cols, tc.buckets, tc.grp, seed)
			whole.InsertEach(keys, append(grp, 0, 0), append(rel, 7, 7)) // grp and rel longer than keys
			pieces := NewGrouped(tc.rows, tc.cols, tc.buckets, tc.grp, seed)
			cuts := []int{0, tc.n / 3, tc.n / 2, tc.n}
			for _, p := range rng.Perm(len(cuts) - 1) {
				pieces.InsertEach(keys[cuts[p]:cuts[p+1]], grp[cuts[p]:cuts[p+1]], rel[cuts[p]:cuts[p+1]])
			}
			for _, got := range []*Grouped{whole, pieces} {
				for i, s := range got.groups {
					if !slices.Equal(s.cells, want.groups[i].cells) {
						t.Fatalf("group %d: block insert left other cells than key-by-key Insert", i)
					}
				}
			}
			three := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
			for _, bad := range []struct {
				what string
				grp  []uint32
				rel  []uint16
			}{
				{"index past the group", []uint32{0, 0, 0}, []uint16{0, 0, uint16(bpg)}},
				{"group past the last", []uint32{0, 0, uint32(whole.NumGroups())}, []uint16{0, 0, 0}},
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("%s accepted", bad.what)
						}
						for i, s := range whole.groups {
							if !slices.Equal(s.cells, want.groups[i].cells) {
								t.Fatalf("%s: a refused list moved a cell of group %d", bad.what, i)
							}
						}
					}()
					whole.InsertEach(three, bad.grp, bad.rel)
				}()
			}
		})
	}
}
