package quantile

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestSplitsPinned pins the exact splits the reference sketches find on one
// seeded gradient-shaped stream: GK at the paper's m = 128 and m = 256, and
// KLL at k = 256 with a fixed seed. The codec sorts its panes, so no golden
// message carries a sketch's splits any more; this is the evidence that
// GK's prune and KLL's compaction did not move. A deliberate change to
// either updates the hash here and says why.
func TestSplitsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	values := make([]float64, 20000)
	for i := range values {
		values[i] = rng.ExpFloat64() * 0.02
	}
	for _, c := range []struct {
		name string
		sk   Sketch
		want uint64
	}{
		{"gk128", NewWithSize(128), 0x5333505fe676060e},
		{"gk256", NewWithSize(256), 0x2accc2528b2cb336},
		{"kll256", NewKLL(256, 7), 0x432c17ba49b39c8f},
	} {
		c.sk.InsertAll(values)
		splits, err := c.sk.Splits(256)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, s := range splits {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(s))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: %d splits hash to 0x%016x, pinned 0x%016x", c.name, len(splits), got, c.want)
		}
	}
}
