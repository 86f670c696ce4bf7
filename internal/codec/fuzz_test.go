package codec

import (
	"math/rand"
	"testing"

	"sketchml/internal/gradient"
)

// decoders under fuzz: every codec must reject arbitrary garbage with an
// error, never panic or return an invalid gradient. The distributed runtime
// feeds network bytes straight into Decode, so this is a hard robustness
// requirement.
func allDecoders() []Codec {
	return []Codec{
		&Raw{},
		&Raw{Float32: true},
		&ZipML{Bits: 8},
		&ZipML{Bits: 16},
		&OneBit{},
		&TopK{Fraction: 0.5},
		MustSketchML(DefaultOptions()),
	}
}

func TestDecodeRandomGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	decoders := allDecoders()
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		for _, c := range decoders {
			g, err := func() (g *gradientResult, err error) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on %d random bytes: %v", c.Name(), n, r)
					}
				}()
				dec, derr := c.Decode(buf)
				if derr != nil {
					return nil, derr
				}
				return &gradientResult{dec.NNZ()}, nil
			}()
			if err == nil && g == nil {
				t.Fatalf("%s returned nil gradient without error", c.Name())
			}
		}
	}
}

type gradientResult struct{ nnz int }

func TestDecodeBitFlippedMessages(t *testing.T) {
	// Flip bits in valid messages: decoders must either error or produce a
	// structurally valid gradient — never panic.
	rng := rand.New(rand.NewSource(2))
	g := randomGradient(rng, 50000, 800)
	for _, c := range allDecoders() {
		msg, err := c.Encode(g)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 500; trial++ {
			mut := append([]byte(nil), msg...)
			flips := 1 + rng.Intn(4)
			for f := 0; f < flips; f++ {
				pos := rng.Intn(len(mut))
				mut[pos] ^= 1 << rng.Intn(8)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on bit-flipped message: %v", c.Name(), r)
					}
				}()
				dec, err := c.Decode(mut)
				if err == nil {
					if verr := dec.Validate(); verr != nil {
						t.Fatalf("%s returned invalid gradient from corrupted message: %v", c.Name(), verr)
					}
				}
			}()
		}
	}
}

// FuzzSketchMLDecode is a native fuzz target for the most complex decoder:
// on any bytes it must do what the reference decoder does — the same
// gradient bit for bit, or an error where the reference gives one.
// Run with: go test -fuzz FuzzSketchMLDecode ./internal/codec
func FuzzSketchMLDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	g := randomGradient(rng, 10000, 200)
	c := MustSketchML(DefaultOptions())
	if msg, err := c.Encode(g); err == nil {
		f.Add(msg)
	}
	empty := randomGradient(rng, 100, 1)
	if msg, err := c.Encode(empty); err == nil {
		f.Add(msg)
	}
	f.Add([]byte{tagSketchML})
	f.Add([]byte{})
	// One seed per branch behind the lists. Dense enough for the rank
	// scatter with several groups a pane, their numbers beside the keys (the
	// first seed, Dim 10 000 at 200 entries, merges two lists); the same
	// message with both key-code flags and with neither, which both decoders
	// refuse; and crafted delta-binary messages, a list per group, that take
	// the scatter's two refusals, the list that overruns the header's
	// count, and the key the sketch has nothing for.
	if msg, err := c.Encode(randomGradient(rng, 4000, 600)); err == nil {
		f.Add(msg)
		noCode := append([]byte(nil), msg...)
		noCode[1] &^= smFlagEFKeys
		f.Add(noCode)
		bothCodes := append([]byte(nil), msg...)
		bothCodes[1] |= smFlagDeltaKeys
		f.Add(bothCodes)
	}
	means := []float64{0.5, 1.5}
	a, b, neg := []uint64{3, 70, 900}, []uint64{5, 71, 1000}, []uint64{8, 72, 1100}
	pane := func(lists ...[]uint64) craftedPane { return craftedPane{means: means, listed: lists, inserted: lists} }
	f.Add(craftMessage(f, 1200, 9, [2]craftedPane{pane(a, b), pane(neg)}))
	f.Add(craftMessage(f, 1200, 9, [2]craftedPane{pane(a, []uint64{5, 70, 1000}), pane(neg)}))
	f.Add(craftMessage(f, 1200, 9, [2]craftedPane{pane(a, b), pane([]uint64{8, 72, 1264})}))
	f.Add(craftMessage(f, 1200, 8, [2]craftedPane{pane(a, b), pane(neg)}))
	f.Add(craftMessage(f, 1200, 9, [2]craftedPane{{means: means, listed: [][]uint64{a, b}, inserted: [][]uint64{a, {5}}}, pane(neg)}))
	var dst gradient.Sparse
	f.Fuzz(func(t *testing.T, data []byte) {
		requireMatchesOracle(t, "fuzz input", data, &dst)
	})
}

// FuzzMerge drives two arbitrary byte slices through both Mergers: MergeInto
// must never panic, and whenever it accepts the pair the output must itself
// decode to a valid gradient — an interior tree node forwards merged bytes
// without ever re-checking them, so an undecodable merge result would
// poison the whole subtree.
// Run with: go test -fuzz FuzzMerge ./internal/codec
func FuzzMerge(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	opts := DefaultOptions()
	opts.MinMax = false
	sk := MustSketchML(opts)
	raw := &Raw{}
	a := randomGradient(rng, 10000, 200)
	b := randomGradient(rng, 10000, 150)
	if ma, err := sk.Encode(a); err == nil {
		if mb, err := sk.Encode(b); err == nil {
			f.Add(ma, mb)
			f.Add(mb, ma)
		}
	}
	if ma, err := raw.Encode(a); err == nil {
		if mb, err := raw.Encode(b); err == nil {
			f.Add(ma, mb)
		}
	}
	f.Add([]byte{tagSketchML}, []byte{})
	f.Add([]byte{}, []byte{})
	mergers := []struct {
		name string
		m    Merger
		c    Codec
	}{{"sketchml", sk, sk}, {"raw", raw, raw}}
	f.Fuzz(func(t *testing.T, x, y []byte) {
		for _, mc := range mergers {
			out, err := mc.m.MergeInto(nil, x, y)
			if err != nil {
				continue
			}
			dec, derr := mc.c.Decode(out)
			if derr != nil {
				t.Fatalf("%s: merge accepted inputs but produced undecodable output: %v", mc.name, derr)
			}
			if verr := dec.Validate(); verr != nil {
				t.Fatalf("%s: merged message decodes to invalid gradient: %v", mc.name, verr)
			}
		}
	})
}
