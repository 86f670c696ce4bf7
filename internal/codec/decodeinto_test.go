package codec

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"sketchml/internal/gradient"
)

// These tests pin the caller-owned-output decode contract behind the
// steady-state receive loop: DecodeInto must produce bit-identical results
// to Decode for every codec, reuse the destination's backing arrays across
// rounds once they have warmed to the message size, and grow an undersized
// destination transparently.

// decodeIntoCodecs enumerates every codec with a DecoderInto fast path,
// across the option axes that change the decode plan.
func decodeIntoCodecs(t *testing.T) map[string]Codec {
	t.Helper()
	small := DefaultOptions()
	small.Buckets = 16
	small.Groups = 2
	return map[string]Codec{
		"Raw":            &Raw{},
		"Raw float32":    &Raw{Float32: true},
		"SketchML":       MustSketchML(DefaultOptions()),
		"SketchML small": MustSketchML(small),
	}
}

func requireSameGradient(t testing.TB, want, got *gradient.Sparse) {
	t.Helper()
	if got.Dim != want.Dim || len(got.Keys) != len(want.Keys) || len(got.Values) != len(want.Values) {
		t.Fatalf("shape mismatch: dim %d/%d nnz %d/%d", got.Dim, want.Dim, got.NNZ(), want.NNZ())
	}
	for i := range want.Keys {
		if got.Keys[i] != want.Keys[i] {
			t.Fatalf("key %d: %d != %d", i, got.Keys[i], want.Keys[i])
		}
		if math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
			t.Fatalf("value %d: %v not bit-identical to %v", i, got.Values[i], want.Values[i])
		}
	}
}

// TestDecodeIntoMatchesDecode checks the two decode paths reconstruct
// bit-identical gradients from the same wire bytes, for fresh, warmed, and
// oversized destinations alike.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGradient(rng, 1<<22, 3000)
	for name, c := range decodeIntoCodecs(t) {
		t.Run(name, func(t *testing.T) {
			d, ok := c.(DecoderInto)
			if !ok {
				t.Fatalf("%s does not implement DecoderInto", name)
			}
			msg, err := c.Encode(g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.Decode(msg)
			if err != nil {
				t.Fatal(err)
			}
			var dst gradient.Sparse // fresh zero-value destination
			if err := d.DecodeInto(msg, &dst); err != nil {
				t.Fatal(err)
			}
			requireSameGradient(t, want, &dst)
			if err := d.DecodeInto(msg, &dst); err != nil { // warmed
				t.Fatal(err)
			}
			requireSameGradient(t, want, &dst)
		})
	}
}

// TestDecodeIntoReusesDestination decodes a sequence of different messages
// into one destination and checks the second same-size decode reuses the
// first decode's backing arrays — the property the trainer's per-worker
// reuse slots and the 0 allocs/op bench rows depend on.
func TestDecodeIntoReusesDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	big := randomGradient(rng, 1<<22, 2000)
	small := randomGradient(rng, 1<<22, 400)
	for name, c := range decodeIntoCodecs(t) {
		t.Run(name, func(t *testing.T) {
			d := c.(DecoderInto)
			bigMsg, err := c.Encode(big)
			if err != nil {
				t.Fatal(err)
			}
			smallMsg, err := c.Encode(small)
			if err != nil {
				t.Fatal(err)
			}
			var dst gradient.Sparse
			if err := d.DecodeInto(bigMsg, &dst); err != nil {
				t.Fatal(err)
			}
			warmKeys, warmVals := &dst.Keys[0], &dst.Values[0]

			// A smaller message must fit in the warmed arrays.
			if err := d.DecodeInto(smallMsg, &dst); err != nil {
				t.Fatal(err)
			}
			if &dst.Keys[0] != warmKeys || &dst.Values[0] != warmVals {
				t.Fatal("smaller decode reallocated the warmed destination")
			}
			wantSmall, err := c.Decode(smallMsg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGradient(t, wantSmall, &dst)

			// And back to the big one: capacity retained from round one.
			if err := d.DecodeInto(bigMsg, &dst); err != nil {
				t.Fatal(err)
			}
			if &dst.Keys[0] != warmKeys || &dst.Values[0] != warmVals {
				t.Fatal("re-decode of the warm size reallocated the destination")
			}
		})
	}
}

// TestDecodeIntoGrowsUndersizedDestination starts from a deliberately tiny
// destination (capacity 1) and checks DecodeInto grows it rather than
// truncating or failing.
func TestDecodeIntoGrowsUndersizedDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := randomGradient(rng, 1<<20, 1500)
	for name, c := range decodeIntoCodecs(t) {
		t.Run(name, func(t *testing.T) {
			d := c.(DecoderInto)
			msg, err := c.Encode(g)
			if err != nil {
				t.Fatal(err)
			}
			dst := gradient.Sparse{Dim: 1, Keys: make([]uint64, 1, 1), Values: make([]float64, 1, 1)}
			if err := d.DecodeInto(msg, &dst); err != nil {
				t.Fatal(err)
			}
			want, err := c.Decode(msg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGradient(t, want, &dst)
		})
	}
}

// TestDecodeReuseFallback pins both DecodeReuse shapes: a DecoderInto codec
// fills and returns the caller's destination; a codec without the fast path
// (ZipML) falls back to Decode, returns a fresh gradient, and leaves the
// destination untouched.
func TestDecodeReuseFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	g := randomGradient(rng, 1<<20, 800)

	fast := &Raw{}
	msg, err := fast.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	var dst gradient.Sparse
	got, err := DecodeReuse(fast, msg, &dst)
	if err != nil {
		t.Fatal(err)
	}
	if got != &dst {
		t.Fatal("DecodeReuse on a DecoderInto codec did not return the destination")
	}

	slow := &ZipML{}
	zmsg, err := slow.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	var untouched gradient.Sparse
	zgot, err := DecodeReuse(slow, zmsg, &untouched)
	if err != nil {
		t.Fatal(err)
	}
	if zgot == &untouched {
		t.Fatal("fallback path returned the destination instead of a fresh gradient")
	}
	if untouched.Keys != nil || untouched.Values != nil {
		t.Fatal("fallback path mutated the unused destination")
	}
	want, err := slow.Decode(zmsg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGradient(t, want, zgot)
}

// mallocsPerRun is testing.AllocsPerRun at a chosen GOMAXPROCS: the
// testing helper pins GOMAXPROCS(1), which is exactly the setting at which
// Options.Parallelism 0 resolves to the serial plan, so it cannot witness
// what a multi-core host runs by default. f runs once to warm up, then
// runs times between two runtime.MemStats.Mallocs readings.
func mallocsPerRun(procs, runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestDecodeIntoZeroAllocWarm is the allocation contract of the receive
// path at the configuration the trainer actually runs: default Options
// (MinMax on, Parallelism 0) on a multi-core GOMAXPROCS, a gradient of the
// benchmark's size, a reused destination — and the same for the Raw
// baseline's valid message. Skipped under -race: the detector's
// instrumentation allocates.
func TestDecodeIntoZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	g := randomGradient(rand.New(rand.NewSource(35)), 2_000_000, 40_000)
	for _, c := range []Codec{MustSketchML(DefaultOptions()), &Raw{}} {
		msg, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		var dst gradient.Sparse
		for _, procs := range []int{1, 2} {
			allocs := mallocsPerRun(procs, 20, func() {
				if err := c.(DecoderInto).DecodeInto(msg, &dst); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s GOMAXPROCS=%d: warm DecodeInto allocates %d objects/op, want 0", c.Name(), procs, allocs)
			}
		}
	}
}
