package codec

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sketchml/internal/gradient"
	"sketchml/internal/quantizer"
)

// -update rewrites the committed golden fixtures from the current encoder.
// Run `go test ./internal/codec -run TestGoldenVectors -update` after a
// DELIBERATE wire-format change, and call the break out in the commit.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// goldenVec is one pinned encoder configuration. The gradient is
// regenerated from the seed on every run, so the fixture bytes are a pure
// function of (seed, dim, nnz, sign, Options) — any drift in the encoder
// shows up as a byte-level diff against the committed .bin file.
type goldenVec struct {
	name string
	opts Options
	dim  uint64
	nnz  int
	seed int64
	sign int // -1 all-negative, 0 mixed, +1 all-positive
}

func goldenVectors() []goldenVec {
	// The fixtures without a rank_ prefix were committed when GK was the
	// default split finder. They pin GKAlgo explicitly and must never be
	// regenerated: passing byte-for-byte is the evidence that the sketches,
	// MinMax, key coding and the wire layout did not move, and that
	// messages written before the default changed still decode.
	mk := func(mut func(*Options)) Options {
		o := DefaultOptions()
		o.Algo = quantizer.GKAlgo
		if mut != nil {
			mut(&o)
		}
		return o
	}
	// The same matrix under the default split finder (RankAlgo).
	rank := func(mut func(*Options)) Options {
		o := mk(mut)
		o.Algo = quantizer.RankAlgo
		return o
	}
	return []goldenVec{
		// The two quantile sketches at the paper's default config.
		{name: "gk_default", opts: mk(nil), dim: 100000, nnz: 1200, seed: 1001},
		{name: "kll_default", opts: mk(func(o *Options) { o.Algo = quantizer.KLLAlgo }), dim: 100000, nnz: 1200, seed: 1001},
		// Group-count sweep: r=1 (no grouping) and r=16 bracket the
		// default r=8; the grouped-pane layout differs per r.
		{name: "gk_r1", opts: mk(func(o *Options) { o.Groups = 1 }), dim: 100000, nnz: 1200, seed: 1002},
		{name: "gk_r16", opts: mk(func(o *Options) { o.Groups = 16 }), dim: 100000, nnz: 1200, seed: 1002},
		// Figure 8 ablation points: keys+quantification without the
		// MinMaxSketch, and delta keys alone with exact values.
		{name: "keyquan", opts: mk(func(o *Options) { o.MinMax = false }), dim: 100000, nnz: 1200, seed: 1003},
		{name: "key_only", opts: mk(func(o *Options) { o.Quantize, o.MinMax = false, false }), dim: 100000, nnz: 1200, seed: 1003},
		// Sign-pane edge cases: a single positive or negative pane (the
		// mixed default exercises both panes at once).
		{name: "all_positive", opts: mk(nil), dim: 50000, nnz: 800, seed: 1004, sign: 1},
		{name: "all_negative", opts: mk(nil), dim: 50000, nnz: 800, seed: 1004, sign: -1},
		// Coarse quantization over a tiny gradient: the q=16 bucket
		// indexes pack into the narrowest pane layout.
		{name: "q16_tiny", opts: mk(func(o *Options) { o.Buckets = 16 }), dim: 256, nnz: 40, seed: 1005},
		// Keys beyond 32 bits flip the wide-keys wire flag.
		{name: "wide_keys", opts: mk(nil), dim: 1 << 33, nnz: 300, seed: 1006},

		{name: "rank_default", opts: rank(nil), dim: 100000, nnz: 1200, seed: 1001},
		{name: "rank_r1", opts: rank(func(o *Options) { o.Groups = 1 }), dim: 100000, nnz: 1200, seed: 1002},
		{name: "rank_r16", opts: rank(func(o *Options) { o.Groups = 16 }), dim: 100000, nnz: 1200, seed: 1002},
		{name: "rank_keyquan", opts: rank(func(o *Options) { o.MinMax = false }), dim: 100000, nnz: 1200, seed: 1003},
		{name: "rank_all_positive", opts: rank(nil), dim: 50000, nnz: 800, seed: 1004, sign: 1},
		{name: "rank_all_negative", opts: rank(nil), dim: 50000, nnz: 800, seed: 1004, sign: -1},
		{name: "rank_q16_tiny", opts: rank(func(o *Options) { o.Buckets = 16 }), dim: 256, nnz: 40, seed: 1005},
		{name: "rank_wide_keys", opts: rank(nil), dim: 1 << 33, nnz: 300, seed: 1006},
	}
}

// gradient regenerates the vector's input deterministically.
func (v goldenVec) gradient() *gradient.Sparse {
	rng := rand.New(rand.NewSource(v.seed))
	m := map[uint64]float64{}
	for len(m) < v.nnz {
		val := rng.ExpFloat64() * 0.02
		if val == 0 {
			continue
		}
		switch {
		case v.sign < 0:
			val = -val
		case v.sign == 0 && rng.Intn(2) == 0:
			val = -val
		}
		m[uint64(rng.Int63n(int64(v.dim)))] = val
	}
	return gradient.FromMap(v.dim, m)
}

func (v goldenVec) fixturePath() string {
	return filepath.Join("testdata", "golden", v.name+".bin")
}

// TestGoldenVectors pins the SketchML wire format byte-for-byte across the
// configuration matrix: the three split finders, the r-group sweep, the
// component ablations, single-sign panes, and wide keys. Each fixture is
// the complete encoded message; encoding the regenerated gradient must
// reproduce it exactly, and decoding the committed bytes must succeed with
// lossless keys and (for the lossy configs) no sign flips — the paper's
// "never amplify, never flip" contract.
func TestGoldenVectors(t *testing.T) {
	for _, v := range goldenVectors() {
		t.Run(v.name, func(t *testing.T) {
			c := MustSketchML(v.opts)
			g := v.gradient()
			enc, err := c.Encode(g)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(v.fixturePath()), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(v.fixturePath(), enc, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", v.fixturePath(), len(enc))
				return
			}
			want, err := os.ReadFile(v.fixturePath())
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("wire format changed: encoded %d bytes != fixture %d bytes (first diff at %d)",
					len(enc), len(want), firstDiff(enc, want))
			}

			// The committed bytes must decode: keys exactly, values
			// sign-preserved.
			dec, err := c.Decode(want)
			if err != nil {
				t.Fatalf("fixture does not decode: %v", err)
			}
			if dec.Dim != g.Dim || len(dec.Keys) != len(g.Keys) {
				t.Fatalf("decode shape: dim %d nnz %d, want dim %d nnz %d",
					dec.Dim, len(dec.Keys), g.Dim, len(g.Keys))
			}
			for i, k := range g.Keys {
				if dec.Keys[i] != k {
					t.Fatalf("key %d decoded as %d, want %d (keys must be lossless)", i, dec.Keys[i], k)
				}
				if dec.Values[i]*g.Values[i] < 0 {
					t.Fatalf("key %d sign flipped: %g -> %g", k, g.Values[i], dec.Values[i])
				}
			}
		})
	}
}

// TestGoldenVectorsPerturbation proves the fixtures actually constrain the
// decoder: flipping a single byte of a committed message must fail loudly
// — either a decode error or output that differs from the clean decode.
// The probed positions are the message tag, the flags byte, and the final
// pane byte; bytes 22–25 (the informational bucket count) are skipped
// because the decoder deliberately ignores them.
func TestGoldenVectorsPerturbation(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures being rewritten")
	}
	for _, v := range goldenVectors() {
		t.Run(v.name, func(t *testing.T) {
			c := MustSketchML(v.opts)
			msg, err := os.ReadFile(v.fixturePath())
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			clean, err := c.Decode(msg)
			if err != nil {
				t.Fatal(err)
			}
			for _, pos := range []int{0, 1, len(msg) - 1} {
				t.Run(fmt.Sprintf("byte%d", pos), func(t *testing.T) {
					mut := append([]byte(nil), msg...)
					mut[pos] ^= 0xFF
					dec, err := c.Decode(mut)
					if err != nil {
						return // loud failure: exactly what we want
					}
					if gradientsEqual(clean, dec) {
						t.Errorf("flipping byte %d of %d went unnoticed: decode succeeded with identical output",
							pos, len(msg))
					}
				})
			}
		})
	}
}

func gradientsEqual(a, b *gradient.Sparse) bool {
	if a.Dim != b.Dim || len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] || a.Values[i] != b.Values[i] {
			return false
		}
	}
	return true
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
