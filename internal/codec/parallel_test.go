package codec

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// TestParallelismBitIdentical pins the invariant of the concurrent pane
// encode: the wire bytes are a pure function of (gradient, Options minus
// Parallelism). Encoding at Parallelism 1, 2, and GOMAXPROCS must produce
// byte-identical messages. Without this, the golden wire tests and
// cross-worker reproducibility would silently depend on core count. It
// also keeps the two-pane fan-out under -race at every GOMAXPROCS the
// race matrix sweeps.
func TestParallelismBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	grads := map[string]*gradientArg{
		"dense-ish": {randomGradient(rng, 2000, 900)},
		"sparse":    {randomGradient(rng, 300000, 700)},
		"tiny":      {randomGradient(rng, 64, 3)},
	}
	variants := map[string]Options{
		"default": DefaultOptions(),
		"no-minmax": func() Options {
			o := DefaultOptions()
			o.MinMax = false
			return o
		}(),
		"keys-only": func() Options {
			o := DefaultOptions()
			o.Quantize = false
			o.MinMax = false
			return o
		}(),
	}
	levels := []int{1, 2, runtime.GOMAXPROCS(0)}

	for gname, ga := range grads {
		for vname, opts := range variants {
			var ref []byte
			for _, par := range levels {
				o := opts
				o.Parallelism = par
				c := MustSketchML(o)
				msg, err := c.Encode(ga.g)
				if err != nil {
					t.Fatalf("%s/%s par=%d: encode: %v", gname, vname, par, err)
				}
				if ref == nil {
					ref = msg
				} else if !bytes.Equal(ref, msg) {
					t.Errorf("%s/%s: Parallelism=%d produced different bytes than Parallelism=1",
						gname, vname, par)
				}
			}
		}
	}
}

// TestParallelismOptionValidated rejects a negative knob at construction.
func TestParallelismOptionValidated(t *testing.T) {
	o := DefaultOptions()
	o.Parallelism = -1
	if _, err := NewSketchML(o); err == nil {
		t.Fatal("NewSketchML accepted negative Parallelism")
	}
}
