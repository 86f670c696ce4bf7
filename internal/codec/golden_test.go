package codec

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// TestWireFormatGolden pins every codec's wire format: a fixed gradient
// must encode to byte-identical messages across changes. A failure here
// means the wire format changed — which breaks mixed-version clusters —
// and must be deliberate (update the constants AND note the format break).
//
// The SketchML constant was last updated when its key lists moved from
// delta-binary to blocked Elias–Fano under a new key-code flag, and with
// them the MinMax pane layout (one key list a pane with each key's group
// number beside it, the group sketches bit-packed behind one header): a
// deliberate format break. A decoder of this version still reads the
// delta-binary messages of the last (the golden vectors written before it
// are decode-only now, pinned to what they decode to, and each has an ef_
// twin that decodes to the same values), but an older decoder refuses the
// new messages, so a mixed-version cluster must upgrade its decoders
// first. Before that it changed when the split finder became a sort of the
// pane, a content change only (the decode-only golden vectors hold the
// GK-era bytes to the values they decoded to when they were written).
func TestWireFormatGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	g := randomGradient(rng, 100000, 1500)
	golden := []struct {
		name string
		size int
		sum  uint64
	}{
		{"Adam", 18014, 0x01033dbb8d38ca0b},
		{"Adam-float", 12014, 0xb868a1bd3030d8bf},
		{"ZipML-8bit", 7531, 0x459a1147a22ed974},
		{"ZipML-16bit", 9031, 0x2d425bf2d8ffbc72},
		{"OneBit", 2128, 0xb64286fa382062fd},
		{"TopK-0.5", 4067, 0xdf245d71da095d1b},
		{"SketchML", 3013, 0x9be75c6f053a514e},
	}
	codecs := allDecoders()
	if len(codecs) != len(golden) {
		t.Fatalf("codec set changed: %d codecs, %d golden entries", len(codecs), len(golden))
	}
	for i, c := range codecs {
		msg, err := c.Encode(g)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		want := golden[i]
		if c.Name() != want.name {
			t.Fatalf("codec %d is %q, golden says %q", i, c.Name(), want.name)
		}
		h := fnv.New64a()
		h.Write(msg)
		if len(msg) != want.size || h.Sum64() != want.sum {
			t.Errorf("%s wire format changed: size %d (want %d), fnv 0x%016x (want 0x%016x)",
				c.Name(), len(msg), want.size, h.Sum64(), want.sum)
		}
	}
}
