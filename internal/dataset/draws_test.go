package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// zipfGrid is the (s, imax) grid the outcome tests cover: the presets'
// exponents, the benchmark's 1.05, a near-1 and a steep one, over ranges
// from two keys to the service's largest Dim.
var (
	zipfGridS    = []float64{1.01, 1.05, 1.2, 1.25, 1.3, 3}
	zipfGridImax = []uint64{1, 10, 14_999, 24_999, 49_999, 2_000_000 - 1, 1<<24 - 1}
)

// newTestJudges returns, for (s, imax), a judge with the table Generate
// builds and one with an empty table, which asks the stdlib every pass.
func newTestJudges(t testing.TB, s float64, imax uint64) (tabled, probe *zipfJudge) {
	t.Helper()
	c := newZipfCurve(s, imax)
	sentinel, err := zipfSentinel(&c)
	if err != nil {
		t.Fatal(err)
	}
	return newZipfJudge(newZipfTable(&c, 3), s, imax, sentinel),
		newZipfJudge(new(zipfTable), s, imax, sentinel)
}

// TestZipfOutcomeMatchesStdlib holds the outcomes Generate reads to
// rand.Zipf draw for draw: over a seeded stream, the keys of the passes
// that do not loop are the keys Zipf.Uint64 returns over the same stream.
// It then compares the table with the probe at the raw values where they
// could part: both sides of every cell edge, and the values that round r
// to 1.0, which make Float64 read again.
func TestZipfOutcomeMatchesStdlib(t *testing.T) {
	draws, edgeStride := 40_000, 1
	if raceEnabled {
		draws, edgeStride = 1_000, 97
	}
	for _, s := range zipfGridS {
		for _, imax := range zipfGridImax {
			t.Run(fmt.Sprintf("s%v_imax%d", s, imax), func(t *testing.T) {
				tabled, probe := newTestJudges(t, s, imax)
				for _, seed := range []int64{1, 2, 99} {
					z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, imax)
					src := rand.NewSource(seed)
					for i := 0; i < draws; i++ {
						k := tabled.outcome(src.Int63())
						for k == again {
							k = tabled.outcome(src.Int63())
						}
						if want := z.Uint64(); k != want {
							t.Fatalf("seed %d draw %d: key %d, rand.Zipf %d", seed, i, k, want)
						}
					}
				}
				for _, v := range []int64{1<<63 - 1, 1<<63 - 511, 1<<63 - 512} {
					if got := tabled.outcome(v); got != again {
						t.Errorf("raw %#x rounds r to 1: outcome %d, want again", v, got)
					}
				}
				check := func(v int64) {
					if got, want := tabled.outcome(v), probe.outcome(v); got != want {
						t.Fatalf("raw %#x (cell %d): table %d, stdlib %d", v, v>>cellShift, got, want)
					}
				}
				check(1<<63 - 513)
				for e := int64(0); e < cells; e += int64(edgeStride) {
					for _, d := range []int64{0, 1, 2, 1 << 9, 1 << 10} {
						check(e<<cellShift + d)
						if e > 0 {
							check(e<<cellShift - d - 1)
						}
					}
				}
			})
		}
	}
}

// TestZipfTable checks that the table decides most passes where the
// runs draw, so the exp and log stay off them, and that the cells do not
// depend on how many goroutines fill them.
func TestZipfTable(t *testing.T) {
	for _, c := range []struct {
		s       float64
		imax    uint64
		atLeast float64 // share of cells the table decides
	}{
		{1.05, 2_000_000 - 1, 0.5}, // the benchmark's call
		{1.2, 2_000_000 - 1, 0.7},  // the service's call
		{1.3, 24_999, 0.8},         // kdd10
		{3, 10, 0.9},
		{1.0005, 2_000_000 - 1, 0}, // past maxCurveGain: the probe decides
	} {
		curve := newZipfCurve(c.s, c.imax)
		one := newZipfTable(&curve, 1)
		decided := 0
		for i, e := range one {
			if e != 0 {
				decided++
			}
			if want := curve.cellKey(curve.edge(i), curve.edge(i+1)); curve.tabled() && i < cells-1 && e != want {
				t.Fatalf("s %v imax %d: cell %d holds %d, its edges give %d", c.s, c.imax, i, e, want)
			}
		}
		share := float64(decided) / cells
		if c.atLeast == 0 && decided != 0 || share < c.atLeast {
			t.Errorf("s %v imax %d: the table decides %.3f of the cells, want at least %v (and none past the gain bound)", c.s, c.imax, share, c.atLeast)
		}
		if one[cells-1] != 0 {
			t.Errorf("s %v imax %d: the top cell, which holds r = 1, is decided", c.s, c.imax)
		}
		for _, procs := range []int{2, 3, 8, 1000} {
			if *newZipfTable(&curve, procs) != *one {
				t.Errorf("s %v imax %d: %d goroutines fill a different table", c.s, c.imax, procs)
			}
		}
	}
}

// TestZipfCellKeyGuard pins the margin the exactness argument needs: a
// cell is decided only when both edges lie zipfGuard·(k+1) inside key k's
// accept region [k − s, k + 0.5), so that the exp∘log rounding of a point
// inside the cell (≈ 1e-13·(k+1)) cannot carry its pass across a
// boundary. Edges a rounding error away from a boundary are refused.
func TestZipfCellKeyGuard(t *testing.T) {
	c := newZipfCurve(1.05, 2_000_000-1)
	for _, k := range []float64{0, 1, 7, 1000, 100_000} {
		near := 1e-9 * (k + 1) // far above the rounding, far below the guard
		lo, hi := k-c.s, k+0.5
		mid := k + (0.5-c.s)/2
		if got := c.cellKey(mid, mid); got != uint32(k)+1 {
			t.Errorf("k %v: a point in the middle of the region gives %d", k, got)
		}
		for _, edges := range [][2]float64{
			{mid, hi - near}, {hi - near, hi - near},
			{lo + near, mid}, {lo + near, lo + near},
			{lo - near, mid}, {mid, hi},
		} {
			if got := c.cellKey(edges[0], edges[1]); got != 0 {
				t.Errorf("k %v: edges %v, within %g of the region's bounds, decide key %d", k, edges, near, got-1)
			}
		}
	}
}

// TestZipfSentinelRefusesHangingExponents: an exponent for which no raw
// value is sure to end a draw is an error, not a Generate that never
// returns.
func TestZipfSentinelRefusesHangingExponents(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), 1e6} {
		if _, err := Generate(SyntheticConfig{N: 10, Dim: 100, AvgNNZ: 3, ZipfS: s, Seed: 1}); err == nil {
			t.Errorf("ZipfS %v accepted", s)
		}
	}
}

// FuzzZipfOutcome compares a cell's verdict with the stdlib's pass over
// any raw value in it: where the cell holds a key, rand.Zipf must return
// that key without reading again.
func FuzzZipfOutcome(f *testing.F) {
	f.Add(int64(0), 1.05, uint64(2_000_000-1))
	f.Add(int64(1<<62), 1.2, uint64(2_000_000-1))
	f.Add(int64(1<<63-1), 1.3, uint64(24_999))
	f.Add(int64(0x7fff_8000_0000_0000), 1.25, uint64(49_999))
	f.Add(int64(0x1234_5678_9abc_def0), 3.0, uint64(10))
	f.Add(int64(0x6000_0000_0000_0000), 1.001, uint64(1<<24-1))
	f.Fuzz(func(t *testing.T, v int64, s float64, imax uint64) {
		v &= 1<<63 - 1
		imax %= 1 << 32
		if !(s > 1 && s <= 100) {
			return
		}
		c := newZipfCurve(s, imax)
		e := int(v >> cellShift)
		if !c.tabled() || e == cells-1 {
			return
		}
		entry := c.cellKey(c.edge(e), c.edge(e+1))
		sentinel, err := zipfSentinel(&c)
		if entry == 0 || err != nil {
			return
		}
		probe := newZipfJudge(new(zipfTable), s, imax, sentinel)
		if got := probe.outcome(v); got != uint64(entry-1) {
			t.Fatalf("s %v imax %d raw %#x: cell %d holds key %d, rand.Zipf's pass gives %d", s, imax, v, e, entry-1, got)
		}
	})
}

// TestGenerateLeavesNoGoroutine: every goroutine Generate starts (the
// table's, the producer, the judges, the finishers) has returned when it
// does, on success and on a refused exponent.
func TestGenerateLeavesNoGoroutine(t *testing.T) {
	for i := 0; i < 3; i++ {
		if _, err := Generate(SyntheticConfig{N: 3000, Dim: 50_000, AvgNNZ: 30, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := Generate(SyntheticConfig{N: 10, Dim: 100, AvgNNZ: 3, ZipfS: math.NaN()}); err == nil {
			t.Fatal("NaN exponent accepted")
		}
		buf := make([]byte, 1<<20)
		stacks := bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n"))
		for _, g := range stacks[1:] { // stacks[0] is this goroutine
			if bytes.Contains(g, []byte("sketchml/internal/dataset.")) {
				t.Fatalf("a goroutine of the dataset package outlives Generate:\n%s", g)
			}
		}
	}
}

// TestGeneratePinnedAcrossGOMAXPROCS runs TestGeneratePinned at 1, 2 and
// 8 Ps: the judges and finishers split differently, the bytes may not.
// The sweep runs outside -race only; under -race the race matrix runs the
// pinned test at its own GOMAXPROCS.
func TestGeneratePinnedAcrossGOMAXPROCS(t *testing.T) {
	if raceEnabled {
		t.Skip("the GOMAXPROCS sweep runs outside -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprint(procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			TestGeneratePinned(t)
		})
	}
}
