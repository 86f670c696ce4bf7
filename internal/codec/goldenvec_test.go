package codec

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sketchml/internal/gradient"
)

// -update rewrites the committed golden fixtures from the current encoder,
// decode-only ones excepted.
// Run `go test ./internal/codec -run TestGoldenVectors -update` after a
// DELIBERATE wire-format change, and call the break out in the commit.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden fixtures")

// goldenVec is one pinned encoder configuration. The gradient is
// regenerated from the seed on every run, so the fixture bytes are a pure
// function of (seed, dim, nnz, sign, Options) — any drift in the encoder
// shows up as a byte-level diff against the committed .bin file.
//
// A fixture with decoded set is decode-only: its bytes were written by an
// encoder that no longer exists — one that could still find its splits
// with the GK or KLL sketch, or one that wrote delta-binary key lists — so
// no encoder reproduces them now. decoded is the decodedHash those bytes
// decoded to when they were written; a decode-only fixture is never
// rewritten.
type goldenVec struct {
	name    string
	opts    Options
	dim     uint64
	nnz     int
	seed    int64
	sign    int // -1 all-negative, 0 mixed, +1 all-positive
	decoded uint64
}

func goldenVectors() []goldenVec {
	mk := func(mut func(*Options)) Options {
		o := DefaultOptions()
		if mut != nil {
			mut(&o)
		}
		return o
	}
	return []goldenVec{
		// Every fixture here but the ef_ ones is decode-only. The fixtures
		// without a prefix were written by the GK split finder (kll_default
		// by KLL), the rank_ ones and key_only by the sort-based encoder
		// while it still wrote delta-binary key lists. Passing is the
		// evidence that messages written then still decode to the same
		// values. Each ef_ fixture holds today's encoder, with Elias–Fano
		// key lists, to its namesake's configuration, and must decode to
		// its namesake's values: only the key code differs.
		//
		// The two quantile sketches at the paper's default config.
		{name: "gk_default", opts: mk(nil), dim: 100000, nnz: 1200, seed: 1001, decoded: 0xa1a9d11cbe7bb261},
		{name: "kll_default", opts: mk(nil), dim: 100000, nnz: 1200, seed: 1001, decoded: 0x0ebfab0bf7b4bd9c},
		// Group-count sweep: r=1 (no grouping) and r=16 bracket the
		// default r=8; the grouped-pane layout differs per r.
		{name: "gk_r1", opts: mk(func(o *Options) { o.Groups = 1 }), dim: 100000, nnz: 1200, seed: 1002, decoded: 0xcd09558e7c84e113},
		{name: "gk_r16", opts: mk(func(o *Options) { o.Groups = 16 }), dim: 100000, nnz: 1200, seed: 1002, decoded: 0xcd09558e7c84e113},
		// Figure 8 ablation points: keys+quantification without the
		// MinMaxSketch, and compressed keys alone with exact values.
		{name: "keyquan", opts: mk(func(o *Options) { o.MinMax = false }), dim: 100000, nnz: 1200, seed: 1003, decoded: 0x86c5e9e3e9149ff1},
		{name: "key_only", opts: mk(func(o *Options) { o.Quantize, o.MinMax = false, false }), dim: 100000, nnz: 1200, seed: 1003, decoded: 0xf602997afb863bb8},
		// Sign-pane edge cases: a single positive or negative pane (the
		// mixed default exercises both panes at once).
		{name: "all_positive", opts: mk(nil), dim: 50000, nnz: 800, seed: 1004, sign: 1, decoded: 0x4d15fa430158d3c8},
		{name: "all_negative", opts: mk(nil), dim: 50000, nnz: 800, seed: 1004, sign: -1, decoded: 0x19e1736393281c0d},
		// Coarse quantization over a tiny gradient: the q=16 bucket
		// indexes pack into the narrowest pane layout.
		{name: "q16_tiny", opts: mk(func(o *Options) { o.Buckets = 16 }), dim: 256, nnz: 40, seed: 1005, decoded: 0xd271e5e652c39366},
		// Keys beyond 32 bits flip the wide-keys wire flag.
		{name: "wide_keys", opts: mk(nil), dim: 1 << 33, nnz: 300, seed: 1006, decoded: 0xed4aca2c168fe6ad},

		{name: "rank_default", opts: mk(nil), dim: 100000, nnz: 1200, seed: 1001, decoded: 0xc2eb5b40c5f98e64},
		{name: "rank_r1", opts: mk(func(o *Options) { o.Groups = 1 }), dim: 100000, nnz: 1200, seed: 1002, decoded: 0x13c06a5475a05a63},
		{name: "rank_r16", opts: mk(func(o *Options) { o.Groups = 16 }), dim: 100000, nnz: 1200, seed: 1002, decoded: 0x13c06a5475a05a63},
		{name: "rank_keyquan", opts: mk(func(o *Options) { o.MinMax = false }), dim: 100000, nnz: 1200, seed: 1003, decoded: 0x3b8c0250575cbe2f},
		{name: "rank_all_positive", opts: mk(nil), dim: 50000, nnz: 800, seed: 1004, sign: 1, decoded: 0x5e95c2c1c771946a},
		{name: "rank_all_negative", opts: mk(nil), dim: 50000, nnz: 800, seed: 1004, sign: -1, decoded: 0x3ddc9d2883947f7e},
		{name: "rank_q16_tiny", opts: mk(func(o *Options) { o.Buckets = 16 }), dim: 256, nnz: 40, seed: 1005, decoded: 0x9015bbefd3995339},
		{name: "rank_wide_keys", opts: mk(nil), dim: 1 << 33, nnz: 300, seed: 1006, decoded: 0x4b8cc52a48f11f0d},

		{name: "ef_rank_default", opts: mk(nil), dim: 100000, nnz: 1200, seed: 1001},
		{name: "ef_rank_r1", opts: mk(func(o *Options) { o.Groups = 1 }), dim: 100000, nnz: 1200, seed: 1002},
		{name: "ef_rank_r16", opts: mk(func(o *Options) { o.Groups = 16 }), dim: 100000, nnz: 1200, seed: 1002},
		{name: "ef_rank_keyquan", opts: mk(func(o *Options) { o.MinMax = false }), dim: 100000, nnz: 1200, seed: 1003},
		{name: "ef_key_only", opts: mk(func(o *Options) { o.Quantize, o.MinMax = false, false }), dim: 100000, nnz: 1200, seed: 1003},
		{name: "ef_rank_all_positive", opts: mk(nil), dim: 50000, nnz: 800, seed: 1004, sign: 1},
		{name: "ef_rank_all_negative", opts: mk(nil), dim: 50000, nnz: 800, seed: 1004, sign: -1},
		{name: "ef_rank_q16_tiny", opts: mk(func(o *Options) { o.Buckets = 16 }), dim: 256, nnz: 40, seed: 1005},
		{name: "ef_rank_wide_keys", opts: mk(nil), dim: 1 << 33, nnz: 300, seed: 1006},
	}
}

// decodedHash is FNV-64a over a decoded gradient's Dim and then each key
// and its value's bits, all little-endian: the pin of a decode-only
// fixture.
func decodedHash(g *gradient.Sparse) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	put(g.Dim)
	for i, k := range g.Keys {
		put(k)
		put(math.Float64bits(g.Values[i]))
	}
	return h.Sum64()
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
// configuration matrix: the r-group sweep, the component ablations,
// single-sign panes, and wide keys. Each fixture is the complete encoded
// message; encoding the regenerated gradient must reproduce it exactly
// (a decode-only fixture must decode to its pinned values instead, and an
// ef_ fixture to its namesake's), and decoding the committed
// bytes must succeed with lossless keys and (for the lossy configs) no sign
// flips — the paper's "never amplify, never flip" contract.
func TestGoldenVectors(t *testing.T) {
	pinned := map[string]uint64{}
	for _, v := range goldenVectors() {
		pinned[v.name] = v.decoded
	}
	for _, v := range goldenVectors() {
		t.Run(v.name, func(t *testing.T) {
			c := MustSketchML(v.opts)
			g := v.gradient()
			if v.decoded == 0 {
				enc, err := c.Encode(g)
				if err != nil {
					t.Fatal(err)
				}
				comparePinnedFixture(t, v.fixturePath(), enc)
			}
			if *updateGolden {
				return
			}

			// The committed bytes must decode: keys exactly, values
			// sign-preserved.
			want, err := os.ReadFile(v.fixturePath())
			if err != nil {
				t.Fatal(err)
			}
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
			if h := decodedHash(dec); v.decoded != 0 && h != v.decoded {
				t.Errorf("fixture decodes to hash 0x%016x, pinned 0x%016x", h, v.decoded)
			}
			if namesake, ok := strings.CutPrefix(v.name, "ef_"); ok && decodedHash(dec) != pinned[namesake] {
				t.Errorf("fixture decodes to hash 0x%016x, %s to 0x%016x", decodedHash(dec), namesake, pinned[namesake])
			}
		})
	}
}

// TestAppendEncodeMatchesEncode pins AppendEncode to Encode byte for byte
// over the golden-vector gradients: appended after a prefix, into a buffer
// whose spare capacity holds junk, SketchML on the serial and the
// concurrent-pane plan and Raw at both value widths write prefix ‖ Encode(g),
// whether the buffer has room for the message or must grow. A gradient
// Encode refuses leaves the buffer as it was.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	prefix := []byte("frame header")
	for _, v := range goldenVectors() {
		g := v.gradient()
		codecs := map[string]Codec{"raw": &Raw{}, "raw-f32": &Raw{Float32: true}}
		for _, par := range []int{1, 2} {
			o := v.opts
			o.Parallelism = par
			codecs[fmt.Sprintf("par%d", par)] = MustSketchML(o)
		}
		for name, c := range codecs {
			want, err := c.Encode(g)
			if err != nil {
				t.Fatal(err)
			}
			want = append(append([]byte(nil), prefix...), want...)
			roomy := make([]byte, len(want)+100)
			for i := range roomy {
				roomy[i] = 0xA5
			}
			for what, dst := range map[string][]byte{
				"room":  append(roomy[:0], prefix...),
				"grows": append([]byte(nil), prefix...),
			} {
				got, err := c.(AppendEncoder).AppendEncode(dst, g)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s/%s/%s: AppendEncode differs from prefix ‖ Encode (first diff at %d)",
						v.name, name, what, firstDiff(got, want))
				}
			}
			bad := &gradient.Sparse{Dim: 10, Keys: []uint64{3, 2}, Values: []float64{1, 1}}
			if got, err := c.(AppendEncoder).AppendEncode(prefix, bad); err == nil || !bytes.Equal(got, prefix) {
				t.Errorf("%s/%s: an invalid gradient came back as %q, %v", v.name, name, got, err)
			}
		}
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
