package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"sketchml/internal/gradient"
)

// TestEncodeDeterministic guards the seeded-hash invariant (§3.3) end to end:
// encoding the same gradient with the same Options (in particular the same
// Seed) must produce byte-identical output, both from one codec instance
// encoding twice and from two independently constructed instances. Any
// hidden nondeterminism — an unseeded hash family, map iteration leaking
// into the wire layout, a process-global random source — breaks this, and
// with it the golden tests and cross-worker reproducibility.
func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
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
		"other-seed": func() Options {
			o := DefaultOptions()
			o.Seed = 0xdecafbadc0ffee
			return o
		}(),
	}

	for gname, ga := range grads {
		for vname, opts := range variants {
			c1 := MustSketchML(opts)
			c2 := MustSketchML(opts)

			m1, err := c1.Encode(ga.g)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", gname, vname, err)
			}
			m1again, err := c1.Encode(ga.g)
			if err != nil {
				t.Fatalf("%s/%s: re-encode: %v", gname, vname, err)
			}
			if !bytes.Equal(m1, m1again) {
				t.Errorf("%s/%s: same instance encoded same gradient differently", gname, vname)
			}
			m2, err := c2.Encode(ga.g)
			if err != nil {
				t.Fatalf("%s/%s: second instance encode: %v", gname, vname, err)
			}
			if !bytes.Equal(m1, m2) {
				t.Errorf("%s/%s: two instances with identical Options disagree on the wire bytes", gname, vname)
			}
		}
	}
}

type gradientArg struct{ g *gradient.Sparse }
