package minmax

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertQueryNoCollisions(t *testing.T) {
	// Wide sketch, few keys: queries must be exact.
	s := New(2, 1<<14, 42)
	for k := uint64(0); k < 100; k++ {
		s.Insert(k, uint16(k%200))
	}
	for k := uint64(0); k < 100; k++ {
		got, ok := s.Query(k)
		if !ok {
			t.Fatalf("Query(%d): not found", k)
		}
		if got != uint16(k%200) {
			t.Errorf("Query(%d) = %d, want %d", k, got, k%200)
		}
	}
}

func TestNeverOverestimates(t *testing.T) {
	// The defining property (Section 3.3): the queried index for an inserted
	// key never exceeds the inserted index, no matter how heavy collisions.
	rng := rand.New(rand.NewSource(1))
	s := New(2, 64, 7) // deliberately tiny -> constant collisions
	truth := map[uint64]uint16{}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(2000))
		idx := uint16(rng.Intn(256))
		if old, seen := truth[k]; !seen || idx < old {
			// Re-inserting the same key with several indexes models nothing
			// in the codec (each key is inserted once), but keep the min as
			// ground truth for the invariant check.
			truth[k] = idx
		}
		s.Insert(k, idx)
	}
	for k, want := range truth {
		got, ok := s.Query(k)
		if !ok {
			t.Fatalf("Query(%d): not found", k)
		}
		if got > want {
			t.Fatalf("Query(%d) = %d overestimates inserted min %d", k, got, want)
		}
	}
}

func TestTheoremA4BinHoldsMinimum(t *testing.T) {
	// Theorem A.4: after any insertion sequence, each bin equals the minimum
	// index among keys hashed to it. Verify against a brute-force model.
	rng := rand.New(rand.NewSource(2))
	const rows, cols = 3, 32
	s := New(rows, cols, 99)
	model := make([]uint16, rows*cols)
	for i := range model {
		model[i] = Empty
	}
	for i := 0; i < 2000; i++ {
		k := uint64(rng.Intn(500))
		idx := uint16(rng.Intn(100))
		s.Insert(k, idx)
		for r := 0; r < rows; r++ {
			bin := r*cols + s.family.Index(r, k)
			if idx < model[bin] {
				model[bin] = idx
			}
		}
	}
	for i := range model {
		if s.cells[i] != model[i] {
			t.Fatalf("bin %d = %d, model says %d", i, s.cells[i], model[i])
		}
	}
}

func TestQueryUnknownKey(t *testing.T) {
	s := New(2, 1<<12, 5)
	if _, ok := s.Query(12345); ok {
		t.Error("query on empty sketch should report not found")
	}
	s.Insert(1, 3)
	// A different key in a huge sketch should (almost surely) miss all
	// populated bins.
	misses := 0
	for k := uint64(100); k < 200; k++ {
		if _, ok := s.Query(k); !ok {
			misses++
		}
	}
	if misses < 95 {
		t.Errorf("only %d/100 unknown keys reported not-found", misses)
	}
}

func TestMaxQueryPicksClosest(t *testing.T) {
	// With s rows, the max of the (all underestimating) candidates is the
	// closest to truth. Statistically check 2-row beats 1-row on accuracy.
	rng := rand.New(rand.NewSource(3))
	type cfg struct{ rows int }
	errSum := map[int]int{}
	for _, c := range []cfg{{1}, {2}, {4}} {
		s := New(c.rows, 512, 11)
		truth := map[uint64]uint16{}
		for k := uint64(0); k < 2000; k++ {
			idx := uint16(rng.Intn(64))
			truth[k] = idx
			s.Insert(k, idx)
		}
		for k, want := range truth {
			got, _ := s.Query(k)
			errSum[c.rows] += int(want) - int(got)
		}
	}
	if errSum[2] > errSum[1] {
		t.Errorf("2 rows (err %d) should not be worse than 1 row (err %d)", errSum[2], errSum[1])
	}
	if errSum[4] > errSum[2] {
		t.Errorf("4 rows (err %d) should not be worse than 2 rows (err %d)", errSum[4], errSum[2])
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, maxIdx := range []int{31, 254, 255, 1000} {
		s := New(3, 128, 77)
		rng := rand.New(rand.NewSource(4))
		for k := uint64(0); k < 300; k++ {
			s.Insert(k, uint16(rng.Intn(maxIdx+1)))
		}
		data, err := s.AppendBinary(nil, maxIdx)
		if err != nil {
			t.Fatalf("maxIdx=%d: %v", maxIdx, err)
		}
		if want := 13 + 3*128*cellWidth(maxIdx); len(data) != want {
			t.Errorf("maxIdx=%d: len=%d, want %d", maxIdx, len(data), want)
		}
		got, used, err := DecodeBinaryReuse(data, 77, nil)
		if err != nil {
			t.Fatalf("maxIdx=%d decode: %v", maxIdx, err)
		}
		if used != len(data) {
			t.Errorf("maxIdx=%d: consumed %d of %d bytes", maxIdx, used, len(data))
		}
		if !bytes.Equal(cellBytes(got), cellBytes(s)) {
			t.Errorf("maxIdx=%d: cells differ after round trip", maxIdx)
		}
		for k := uint64(0); k < 300; k++ {
			a, aok := s.Query(k)
			b, bok := got.Query(k)
			if a != b || aok != bok {
				t.Fatalf("maxIdx=%d: query mismatch at key %d", maxIdx, k)
			}
		}
	}
}

func cellBytes(s *Sketch) []byte {
	out := make([]byte, 0, len(s.cells)*2)
	for _, c := range s.cells {
		out = append(out, byte(c), byte(c>>8))
	}
	return out
}

func TestOneByteSerializationSmaller(t *testing.T) {
	s := New(2, 1000, 3)
	small, err := s.AppendBinary(nil, 100) // fits 1 byte
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.AppendBinary(nil, 1000) // needs 2 bytes
	if err != nil {
		t.Fatal(err)
	}
	if len(small) >= len(large) {
		t.Errorf("1-byte cells (%d) should be smaller than 2-byte (%d)", len(small), len(large))
	}
}

func TestMarshalRejectsOverflow(t *testing.T) {
	s := New(1, 8, 0)
	s.Insert(1, 300)
	if _, err := s.AppendBinary(nil, 100); err == nil {
		t.Error("expected error: stored index exceeds declared max")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeBinaryReuse([]byte{1, 2, 3}, 0, nil); err == nil {
		t.Error("truncated header should error")
	}
	s := New(2, 8, 0)
	data, _ := s.AppendBinary(nil, 10)
	if _, _, err := DecodeBinaryReuse(data[:len(data)-1], 0, nil); err == nil {
		t.Error("truncated body should error")
	}
	bad := append([]byte(nil), data...)
	bad[12] = 7 // invalid cell width
	if _, _, err := DecodeBinaryReuse(bad, 0, nil); err == nil {
		t.Error("bad cell width should error")
	}
}

func TestGroupedRouting(t *testing.T) {
	g := NewGrouped(2, 800, 256, 8, 42)
	if g.NumGroups() != 8 {
		t.Fatalf("NumGroups = %d, want 8", g.NumGroups())
	}
	if g.BucketsPerGroup() != 32 {
		t.Fatalf("BucketsPerGroup = %d, want 32", g.BucketsPerGroup())
	}
	cases := []struct{ bucket, group int }{
		{0, 0}, {31, 0}, {32, 1}, {255, 7}, {128, 4},
	}
	for _, c := range cases {
		if got := g.GroupOf(c.bucket); got != c.group {
			t.Errorf("GroupOf(%d) = %d, want %d", c.bucket, got, c.group)
		}
	}
}

func TestGroupedInsertQuery(t *testing.T) {
	g := NewGrouped(2, 4096, 256, 8, 13)
	rng := rand.New(rand.NewSource(5))
	type rec struct {
		grp    int
		bucket int
	}
	truth := map[uint64]rec{}
	for k := uint64(0); k < 500; k++ {
		b := rng.Intn(256)
		grp := g.Insert(k, b)
		truth[k] = rec{grp, b}
	}
	for k, want := range truth {
		got, ok := g.Query(want.grp, k)
		if !ok {
			t.Fatalf("Query(%d) not found", k)
		}
		if got > want.bucket {
			t.Fatalf("grouped query overestimates: key %d got %d want <= %d", k, got, want.bucket)
		}
		// Error is bounded by group width.
		if want.bucket-got >= g.BucketsPerGroup() {
			t.Fatalf("error %d >= group width %d", want.bucket-got, g.BucketsPerGroup())
		}
	}
}

func TestGroupedErrorBoundedByGroupWidth(t *testing.T) {
	// The whole point of grouping: with r groups the max index error is q/r.
	// Compare worst-case error of r=1 vs r=8 under heavy collisions.
	worst := func(numGroups int) int {
		g := NewGrouped(2, 64, 256, numGroups, 7) // tiny -> collisions
		rng := rand.New(rand.NewSource(6))
		truth := map[uint64]struct{ grp, b int }{}
		for k := uint64(0); k < 3000; k++ {
			b := rng.Intn(256)
			grp := g.Insert(k, b)
			truth[k] = struct{ grp, b int }{grp, b}
		}
		w := 0
		for k, tr := range truth {
			got, ok := g.Query(tr.grp, k)
			if !ok {
				continue
			}
			if e := tr.b - got; e > w {
				w = e
			}
		}
		return w
	}
	w1, w8 := worst(1), worst(8)
	if w8 >= 32 {
		t.Errorf("r=8 worst error %d, want < 32", w8)
	}
	if w1 <= w8 {
		t.Logf("note: r=1 worst error %d, r=8 %d (expected r=1 larger)", w1, w8)
	}
}

func TestGroupedMarshalRoundTrip(t *testing.T) {
	g := NewGrouped(2, 512, 256, 8, 21)
	rng := rand.New(rand.NewSource(7))
	keys := map[uint64]int{}
	for k := uint64(0); k < 400; k++ {
		b := rng.Intn(256)
		keys[k] = g.Insert(k, b)
	}
	data, err := g.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 12-byte header, then 8 groups of a 13-byte header and 2×64 1-byte cells.
	if want := 12 + 8*(13+2*64); len(data) != want {
		t.Errorf("len=%d, want %d", len(data), want)
	}
	got, used, err := DecodeGroupedReuse(data, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(data) {
		t.Errorf("consumed %d of %d", used, len(data))
	}
	for k, grp := range keys {
		a, aok := g.Query(grp, k)
		b, bok := got.Query(grp, k)
		if a != b || aok != bok {
			t.Fatalf("grouped query mismatch at key %d: (%d,%v) vs (%d,%v)", k, a, aok, b, bok)
		}
	}
}

func TestGroupedQueryBadGroup(t *testing.T) {
	g := NewGrouped(1, 8, 16, 4, 0)
	if _, ok := g.Query(-1, 5); ok {
		t.Error("negative group should miss")
	}
	if _, ok := g.Query(99, 5); ok {
		t.Error("out-of-range group should miss")
	}
}

func TestGroupedMoreGroupsThanBuckets(t *testing.T) {
	g := NewGrouped(1, 16, 4, 100, 0)
	if g.NumGroups() != 4 {
		t.Errorf("NumGroups = %d, want clamped to 4", g.NumGroups())
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 4, 0) },
		func() { New(4, 0, 0) },
		func() { NewGrouped(1, 4, 0, 1, 0) },
		func() { NewGrouped(1, 4, 8, 0, 0) },
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

func TestInsertRejectsHugeIndex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on index > MaxIndex")
		}
	}()
	New(1, 4, 0).Insert(1, Empty)
}

// Property: underestimation is preserved under any interleaving of inserts.
func TestQuickOneSidedError(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(2, 32, uint64(seed))
		type kv struct {
			k uint64
			v uint16
		}
		var items []kv
		for i := 0; i < 200; i++ {
			it := kv{uint64(rng.Intn(100)), uint16(rng.Intn(50))}
			items = append(items, it)
			s.Insert(it.k, it.v)
		}
		minOf := map[uint64]uint16{}
		for _, it := range items {
			if m, ok := minOf[it.k]; !ok || it.v < m {
				minOf[it.k] = it.v
			}
		}
		for k, m := range minOf {
			got, ok := s.Query(k)
			if !ok || got > m {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := New(2, 1<<16, 42)
	for i := 0; i < b.N; i++ {
		s.Insert(uint64(i), uint16(i&255))
	}
}

func BenchmarkQuery(b *testing.B) {
	s := New(2, 1<<16, 42)
	for i := 0; i < 1<<16; i++ {
		s.Insert(uint64(i), uint16(i&255))
	}
	b.ResetTimer()
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink, _ = s.Query(uint64(i))
	}
	_ = sink
}

func TestAppendixA2CorrectnessRate(t *testing.T) {
	// Appendix A.2.2 derives the expected fraction of exactly-answered
	// queries. In our min-insert/max-query orientation, the query for the
	// l-th smallest index is exact iff in at least one row no element with
	// a smaller index shares its bin:
	//   P(exact for l) = 1 - (1 - (1-1/w)^(l-1))^s
	// The empirical rate must not fall materially below the formula's mean.
	const (
		rows = 2
		cols = 64
		v    = 200 // distinct elements, distinct indexes
	)
	var formula float64
	for l := 1; l <= v; l++ {
		pRow := math.Pow(1-1.0/cols, float64(l-1))
		formula += 1 - math.Pow(1-pRow, rows)
	}
	formula /= v

	trials, exactSum := 30, 0.0
	for trial := 0; trial < trials; trial++ {
		s := New(rows, cols, uint64(trial)*977+3)
		for l := 0; l < v; l++ {
			s.Insert(uint64(l)*2654435761+uint64(trial), uint16(l))
		}
		exact := 0
		for l := 0; l < v; l++ {
			got, ok := s.Query(uint64(l)*2654435761 + uint64(trial))
			if ok && got == uint16(l) {
				exact++
			}
		}
		exactSum += float64(exact) / v
	}
	empirical := exactSum / float64(trials)
	if empirical < formula-0.05 {
		t.Errorf("empirical correctness rate %.3f below Appendix A.2 bound %.3f", empirical, formula)
	}
}
