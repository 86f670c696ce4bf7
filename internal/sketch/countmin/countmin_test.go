package countmin

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNeverUnderestimates(t *testing.T) {
	s := New(4, 256, 42)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(1000)) // heavy collisions on purpose
		s.InsertWeighted(k, 1)
		truth[k]++
	}
	for k, want := range truth {
		if got := s.Query(k); got < want {
			t.Fatalf("Query(%d) = %d underestimates true %d", k, got, want)
		}
	}
}

func TestExactWhenNoCollisions(t *testing.T) {
	// With very few keys and a wide sketch, estimates should be exact.
	s := New(4, 1<<14, 7)
	for k := uint64(0); k < 10; k++ {
		s.InsertWeighted(k, k+1)
	}
	for k := uint64(0); k < 10; k++ {
		if got := s.Query(k); got != k+1 {
			t.Errorf("Query(%d) = %d, want %d", k, got, k+1)
		}
	}
}

func TestErrorBound(t *testing.T) {
	// eps=0.01, delta=0.01: overestimate <= eps*N for >= 99% of keys, with
	// rows = ceil(ln(1/delta)) = 5 and cols = ceil(e/eps) = 272.
	s := New(5, 272, 3)
	rng := rand.New(rand.NewSource(2))
	truth := map[uint64]uint64{}
	const n = 50000
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(5000))
		s.InsertWeighted(k, 1)
		truth[k]++
	}
	bad := 0
	for k, want := range truth {
		if float64(s.Query(k)-want) > 0.01*n {
			bad++
		}
	}
	if frac := float64(bad) / float64(len(truth)); frac > 0.05 {
		t.Errorf("%.1f%% of keys exceed eps*N overestimation, want <=5%%", frac*100)
	}
}

func TestUnseenKeyLowEstimate(t *testing.T) {
	s := New(4, 4096, 11)
	for k := uint64(0); k < 100; k++ {
		s.InsertWeighted(k, 1)
	}
	// A never-inserted key should usually estimate 0 in a sparse sketch.
	zero := 0
	for k := uint64(1e6); k < 1e6+100; k++ {
		if s.Query(k) == 0 {
			zero++
		}
	}
	if zero < 90 {
		t.Errorf("only %d/100 unseen keys estimated 0", zero)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 10, 1) },
		func() { New(10, 0, 1) },
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

// Property: Query is monotone under insertion — inserting any key never
// decreases any estimate.
func TestQuickMonotone(t *testing.T) {
	s := New(4, 128, 99)
	probe := []uint64{1, 2, 3, 1000, 99999}
	err := quick.Check(func(k uint64) bool {
		before := make([]uint64, len(probe))
		for i, p := range probe {
			before[i] = s.Query(p)
		}
		s.InsertWeighted(k, 1)
		for i, p := range probe {
			if s.Query(p) < before[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	s := New(4, 1<<16, 42)
	for i := 0; i < b.N; i++ {
		s.InsertWeighted(uint64(i), 1)
	}
}

func BenchmarkQuery(b *testing.B) {
	s := New(4, 1<<16, 42)
	for i := 0; i < 1<<16; i++ {
		s.InsertWeighted(uint64(i), 1)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Query(uint64(i))
	}
	_ = sink
}
