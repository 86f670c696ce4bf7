package codec

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
	// first seed, Dim 10 000 at 200 entries, merges the two panes); the same
	// message with no key-code flag, with both and with the retired
	// delta-binary one alone, which both decoders refuse; and crafted
	// messages that take the scatter's two refusals, the list that overruns
	// the header's count, a key under a group that lacks it and a group
	// number past the pane's groups.
	if msg, err := c.Encode(randomGradient(rng, 4000, 600)); err == nil {
		f.Add(msg)
		for _, flags := range []byte{0, smFlagEFKeys | smFlagDeltaKeys, smFlagDeltaKeys} {
			mut := append([]byte(nil), msg...)
			mut[1] = mut[1]&^(smFlagEFKeys|smFlagDeltaKeys) | flags
			f.Add(mut)
		}
	}
	means := []float64{0.5, 1.5}
	a, b, neg := []uint64{3, 70, 900}, []uint64{5, 71, 1000}, []uint64{8, 72, 1100}
	pane := func(lists ...[]uint64) craftedPane { return groupedPane(means, lists...) }
	wrongGroup := pane(a, b)
	wrongGroup.groups[0] = 1 // key 3, group 0's, listed under group 1
	pastGroups := groupedPane([]float64{0.5, 1.5, 2.5}, a, nil, b)
	pastGroups.groups[1] = 3 // key 5, the last group's
	f.Add(craftMessage(f, 1200, 9, [2]craftedPane{pane(a, b), pane(neg)}))
	f.Add(craftMessage(f, 1200, 9, [2]craftedPane{pane(a, b), pane([]uint64{8, 71, 1100})}))
	f.Add(craftMessage(f, 1200, 9, [2]craftedPane{pane(a, b), pane([]uint64{8, 72, 1264})}))
	f.Add(craftMessage(f, 1200, 8, [2]craftedPane{pane(a, b), pane(neg)}))
	f.Add(craftMessage(f, 1200, 9, [2]craftedPane{wrongGroup, pane(neg)}))
	f.Add(craftMessage(f, 1200, 6, [2]craftedPane{pastGroups, {}}))
	var dst gradient.Sparse
	f.Fuzz(func(t *testing.T, data []byte) {
		requireMatchesOracle(t, "fuzz input", data, &dst)
	})
}

// TestFuzzCorpusReachesItsCheck decodes each committed FuzzSketchMLDecode
// corpus entry and matches its error to the check the entry is named for,
// so an entry that a format change strands at an earlier check — the key-code
// flags, say — fails here by name instead of going on passing the fuzz
// target for another reason. A new entry needs a row.
func TestFuzzCorpusReachesItsCheck(t *testing.T) {
	want := map[string]string{
		"huge-count-header":  "count 4294967295 exceeds what a message of 34 bytes holds",
		"huge-means-count":   "pane 0: " + errTruncated.Error(),
		"huge-raw-key-count": "key list of 4294967295 runs past the header's count",
		"zero-length-frame":  errTruncated.Error(),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSketchMLDecode")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		check, ok := want[e.Name()]
		if !ok {
			t.Errorf("corpus entry %s has no row", e.Name())
			continue
		}
		file, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(file)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		if !ok || header != "go test fuzz v1" {
			t.Fatalf("%s: not a one-value corpus file", e.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		_, err = decoderUnderTest.Decode([]byte(data))
		if err == nil || !strings.Contains(err.Error(), check) {
			t.Errorf("%s: decode error %v, want one containing %q", e.Name(), err, check)
		}
		delete(want, e.Name())
	}
	for name := range want {
		t.Errorf("corpus entry %s is missing", name)
	}
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
