package codec

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"sketchml/internal/gradient"
	"sketchml/internal/obs"
)

// Tests for the encode side of the zero-allocation steady state: the pooled
// per-pane scratch must never change the bytes (whatever it held before,
// whichever plan runs, however many CPUs), and a warm Encode allocates the
// message and nothing else.

// scratchShapes are value shapes that stress the rank builder inside a real
// message: ties that straddle bucket boundaries, presorted magnitudes, and
// a positive pane holding zeros of both signs and subnormals.
func scratchShapes() map[string]*gradient.Sparse {
	rng := rand.New(rand.NewSource(61))
	build := func(dim uint64, nnz int, val func(i int) float64) *gradient.Sparse {
		keys := map[uint64]bool{}
		for len(keys) < nnz {
			keys[uint64(rng.Int63n(int64(dim)))] = true
		}
		g := gradient.NewSparse(dim, nnz)
		for k := range keys {
			g.Keys = append(g.Keys, k)
		}
		sort.Slice(g.Keys, func(i, j int) bool { return g.Keys[i] < g.Keys[j] })
		for i := range g.Keys {
			g.Values = append(g.Values, val(i))
		}
		return g
	}
	negZero := math.Copysign(0, -1)
	return map[string]*gradient.Sparse{
		"random": randomGradient(rng, 1<<20, 6000),
		"heavy-ties": build(1<<20, 5000, func(i int) float64 {
			if i%10 > 0 {
				return 0.125 * float64(1-2*(i%2))
			}
			return rng.NormFloat64()
		}),
		"sorted":         build(1<<18, 3000, func(i int) float64 { return float64(i+1) * 1e-4 }),
		"reverse-sorted": build(1<<18, 3000, func(i int) float64 { return -float64(3000-i) * 1e-4 }),
		"zeros-and-subnormals": build(4096, 600, func(i int) float64 {
			return []float64{0, negZero, 5e-324, 1e-310, 0.25, -0.25, -5e-324}[i%7]
		}),
		"tiny": randomGradient(rng, 64, 3),
	}
}

// TestEncodeSameBytesEveryPlan: the message is a function of the gradient
// and the Options minus Parallelism — not of the plan, the CPU count, or
// what the pooled scratch encoded last. The reference is the first encode
// at Parallelism 1 and GOMAXPROCS 1; the others run after unrelated messages
// of other sizes have been through the pools. Every plan runs at GOMAXPROCS
// 1 and 2, and the default plan, which follows the CPU count, at every
// GOMAXPROCS up to 17: a bit of the CPU count that 1, 2 and 8 leave clear
// (16) must not reach the bytes either. That sweep sets GOMAXPROCS itself,
// so it does not depend on the process's own; it runs once, in the plain
// `go test`, and the -race runs of the matrix keep the six plans at 1 and 2.
func TestEncodeSameBytesEveryPlan(t *testing.T) {
	shapes := scratchShapes()
	variants := map[string]func(*Options){
		"default":   func(*Options) {},
		"no-minmax": func(o *Options) { o.MinMax = false },
		"r1":        func(o *Options) { o.Groups = 1 },
	}
	type plan struct{ procs, par int }
	var plans []plan
	for procs := 1; procs <= 2; procs++ {
		plans = append(plans, plan{procs, 0}, plan{procs, 1}, plan{procs, 2})
	}
	if !raceEnabled {
		for procs := 3; procs <= 17; procs++ {
			plans = append(plans, plan{procs, 0})
		}
	}
	for sname, g := range shapes {
		for vname, mut := range variants {
			t.Run(sname+"/"+vname, func(t *testing.T) {
				opts := DefaultOptions()
				mut(&opts)
				opts.Parallelism = 1
				prev := runtime.GOMAXPROCS(1)
				ref, err := MustSketchML(opts).Encode(g)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := MustSketchML(opts).Decode(ref)
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range g.Keys {
					if dec.Keys[i] != k || dec.Values[i]*g.Values[i] < 0 {
						t.Fatalf("key %d: decoded (%d, %g) from (%d, %g)", i, dec.Keys[i], dec.Values[i], k, g.Values[i])
					}
				}
				for _, p := range plans {
					prev := runtime.GOMAXPROCS(p.procs)
					o := opts
					o.Parallelism = p.par
					c := MustSketchML(o)
					for _, other := range shapes { // dirty the pooled scratch
						if _, err := c.Encode(other); err != nil {
							t.Fatal(err)
						}
					}
					msg, err := c.Encode(g)
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(msg, ref) {
						t.Errorf("GOMAXPROCS=%d Parallelism=%d: bytes differ from the serial reference (first diff at %d)",
							p.procs, p.par, firstDiff(msg, ref))
					}
				}
			})
		}
	}
}

// TestEncodeAllocsWarm is the allocation contract of the send path, the
// mirror of TestDecodeIntoZeroAllocWarm: at the benchmark's message size a
// warm Encode allocates the returned message and nothing else on the serial
// plan; the concurrent plan adds what the second goroutine needs — its
// closure, the done channel and the values it shares with the caller, 6 in
// all. The Raw baseline allocates its message too. Refilling a pool is the
// cold path, not this one, so the collector is off while the test counts (a
// collection empties the pools) and the figure is the least of five batches
// (sync.Pool caches per P, and a goroutine the scheduler moves to a P with an
// empty cache refills one scratch). Skipped under -race: the detector's
// instrumentation allocates.
func TestEncodeAllocsWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := randomGradient(rand.New(rand.NewSource(36)), 2_000_000, 40_000)
	sketch := func(par int) Codec {
		opts := DefaultOptions()
		opts.Parallelism = par
		return MustSketchML(opts)
	}
	for _, tc := range []struct {
		name    string
		c       Codec
		procs   int
		ceiling uint64
	}{
		{"par1", sketch(1), 1, 1}, {"par1", sketch(1), 2, 1},
		{"par0", sketch(0), 1, 1}, {"par0", sketch(0), 2, 6}, {"par2", sketch(2), 2, 6},
		{"Raw", &Raw{}, 1, 1}, {"Raw", &Raw{}, 2, 1},
	} {
		t.Run(fmt.Sprintf("%s_procs%d", tc.name, tc.procs), func(t *testing.T) {
			encode := func() {
				if _, err := tc.c.Encode(g); err != nil {
					t.Fatal(err)
				}
			}
			allocs := mallocsPerRun(tc.procs, 20, encode) // the first batch warms the pools
			for batch := 0; batch < 5; batch++ {
				allocs = min(allocs, mallocsPerRun(tc.procs, 20, encode))
			}
			if allocs > tc.ceiling {
				t.Errorf("warm Encode allocates %d objects/op, want at most %d", allocs, tc.ceiling)
			}
		})
	}
}

// TestAppendEncodeZeroAllocWarm is the allocation contract of the send path
// as the trainer runs it: every party encodes straight into its frame
// buffer, so a warm AppendEncode into a buffer with room for the message
// allocates nothing — Raw, and SketchML on the serial plan at GOMAXPROCS 1
// and 2. Counted like TestEncodeAllocsWarm: collector off, least of five
// batches. Skipped under -race: the detector's instrumentation allocates.
func TestAppendEncodeZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := randomGradient(rand.New(rand.NewSource(37)), 2_000_000, 40_000)
	serial := DefaultOptions()
	serial.Parallelism = 1
	metered := serial
	metered.Metrics = obs.NewRegistry()
	for _, tc := range []struct {
		name  string
		c     AppendEncoder
		procs int
	}{
		{"SketchML_par1", MustSketchML(serial), 1}, {"SketchML_par1", MustSketchML(serial), 2},
		{"SketchML_par1_metrics", MustSketchML(metered), 1}, {"SketchML_par1_metrics", MustSketchML(metered), 2},
		{"Raw", &Raw{}, 1}, {"Raw", &Raw{}, 2},
	} {
		t.Run(fmt.Sprintf("%s_procs%d", tc.name, tc.procs), func(t *testing.T) {
			msg, err := tc.c.AppendEncode(nil, g)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 0, 9+len(msg))
			encode := func() {
				if _, err := tc.c.AppendEncode(buf[:9], g); err != nil {
					t.Fatal(err)
				}
			}
			allocs := mallocsPerRun(tc.procs, 20, encode) // the first batch warms the pools
			for batch := 0; batch < 5; batch++ {
				allocs = min(allocs, mallocsPerRun(tc.procs, 20, encode))
			}
			if allocs != 0 {
				t.Errorf("warm AppendEncode into a sized buffer allocates %d objects/op, want 0", allocs)
			}
		})
	}
}
