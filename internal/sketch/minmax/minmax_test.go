package minmax

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sketchml/internal/bitpack"
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

// TestMarshalRoundTrip sends one-group sketches through AppendPacked and
// DecodeGroupedPackedReuse at group sizes whose cells take 6, 8, 9 and 10
// bits: the size is the header and BitsFor(q+1) bits a cell, and the cells
// and every query come back as they were.
func TestMarshalRoundTrip(t *testing.T) {
	for _, q := range []int{32, 255, 256, 1001} {
		g := NewGrouped(3, 128, q, 1, 77)
		rng := rand.New(rand.NewSource(4))
		for k := uint64(0); k < 300; k++ {
			g.Insert(k, rng.Intn(q))
		}
		data, err := g.AppendPacked(nil)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if want := packedHeader + bitpack.PackedSize(3*128, bitpack.BitsFor(q+1)); len(data) != want {
			t.Errorf("q=%d: len=%d, want %d", q, len(data), want)
		}
		got, used, err := DecodeGroupedPackedReuse(data, 77, nil)
		if err != nil {
			t.Fatalf("q=%d decode: %v", q, err)
		}
		if used != len(data) {
			t.Errorf("q=%d: consumed %d of %d bytes", q, used, len(data))
		}
		if !slices.Equal(got.groups[0].cells, g.groups[0].cells) {
			t.Errorf("q=%d: cells differ after round trip", q)
		}
		for k := uint64(0); k < 300; k++ {
			a, aok := g.Query(0, k)
			b, bok := got.Query(0, k)
			if a != b || aok != bok {
				t.Fatalf("q=%d: query mismatch at key %d", q, k)
			}
		}
	}
}

// TestMarshalRejectsOverflow: AppendPacked refuses a stored index past the
// group size, which only a sketch written around Grouped.Insert can hold.
func TestMarshalRejectsOverflow(t *testing.T) {
	g := NewGrouped(1, 8, 100, 1, 0)
	g.groups[0].Insert(1, 300)
	if _, err := g.AppendPacked(nil); err == nil {
		t.Error("expected error: stored index exceeds the group size")
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
