package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sketchml/internal/gradient"
	"sketchml/internal/hashing"
	"sketchml/internal/keycoding"
	"sketchml/internal/sketch/minmax"
)

// The decoder is a pure function of the message, so the tests below hold it
// to the reference in decode_oracle_test.go: the same keys, the same value
// bits, and an error exactly when the reference gives one.

// requireMatchesOracle decodes data with the production decoder, into a
// destination that has been used before, and with the oracle.
func requireMatchesOracle(t testing.TB, what string, data []byte, dst *gradient.Sparse) {
	t.Helper()
	want, wantErr := oracleDecode(data)
	err := decoderUnderTest.DecodeInto(data, dst)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, oracle says %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	if got := dst.Validate(); got != nil {
		t.Fatalf("%s: decoded an invalid gradient: %v", what, got)
	}
	requireSameGradient(t, want, dst)
}

// decoderUnderTest decodes every message of these tests: nothing in Options
// reaches the decoder but Metrics.
var decoderUnderTest = MustSketchML(DefaultOptions())

// thorough reports whether the sweeps below run in full. They are
// single-goroutine comparisons the race detector has nothing to add to and
// slows tenfold, so under -race (and -short) they thin out: the 14-list shape
// at the benchmark's Dim only, one overwrite at every third byte.
func thorough() bool { return !raceEnabled && !testing.Short() }

// ablations are the component sets of Figure 8 that SketchML encodes (the
// fourth, Adam, is codec.Raw).
var ablations = []struct {
	name         string
	quant, minMx bool
}{
	{"Adam+Key", false, false},
	{"Adam+Key+Quan", true, false},
	{"SketchML", true, true},
}

// TestDecodeMatchesOracle sweeps the message shapes the encoder can write:
// narrow and wide keys, the empty and one-entry messages, panes too small
// to group and the benchmark's 14-list aggregate, every hash row count, and
// the ablation layouts. Dim against nnz puts the points on both sides
// of the density test (⌈Dim/64⌉ ≤ 2·nnz + 1) that picks rank scatter or
// merge; TestDecodeDensityBoundary sits on the line itself.
func TestDecodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var dst gradient.Sparse
	for _, dim := range []uint64{5_000, 2_000_000, 1 << 22, 1 << 40} {
		for _, nnz := range []int{0, 1, 17, 500, 4_000, 122_000} {
			if uint64(nnz) > dim || (nnz > 4_000 && dim != 2_000_000 && !thorough()) {
				continue
			}
			g := randomGradient(rng, dim, nnz)
			for _, ab := range ablations {
				for _, groups := range []int{1, 8, 16} {
					for _, rows := range []int{1, 2, 3} {
						if !ab.minMx && (groups != 8 || rows != 2) {
							continue // neither reaches a layout without the sketch
						}
						if nnz > 4_000 && !thorough() && (groups != 8 || rows != 2) {
							continue
						}
						opts := DefaultOptions()
						opts.Quantize, opts.MinMax = ab.quant, ab.minMx
						opts.Groups, opts.Rows = groups, rows
						msg, err := MustSketchML(opts).Encode(g)
						if err != nil {
							t.Fatal(err)
						}
						what := fmt.Sprintf("dim %d nnz %d %s r%d s%d", dim, nnz, ab.name, groups, rows)
						requireMatchesOracle(t, what, msg, &dst)
					}
				}
			}
		}
	}
}

// TestDecodeDensityBoundary decodes the same entries under the largest Dim
// the rank scatter takes and the smallest it leaves to the merge, for
// messages of one list a pane and of several.
func TestDecodeDensityBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var dst gradient.Sparse
	for _, nnz := range []int{1, 2, 17, 500, 3_000} {
		edge := 128*uint64(nnz) + 64
		g := randomGradient(rng, edge-1, nnz)
		for _, dim := range []uint64{edge - 1, edge, edge + 1, edge + 63, edge + 64, 2 * edge} {
			g.Dim = dim
			for _, ab := range ablations[1:] {
				opts := DefaultOptions()
				opts.Quantize, opts.MinMax = ab.quant, ab.minMx
				msg, err := MustSketchML(opts).Encode(g)
				if err != nil {
					t.Fatal(err)
				}
				requireMatchesOracle(t, fmt.Sprintf("nnz %d dim %d %s", nnz, dim, ab.name), msg, &dst)
			}
		}
	}
}

// TestDecodeCorruptionsMatchOracle walks a dense message (rank scatter) and
// a sparse one (merge) through every single-byte overwrite and every
// truncation: whatever the reference makes of a damaged message — an error,
// or a gradient — the decoder makes the same.
func TestDecodeCorruptionsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	var dst gradient.Sparse
	for _, dim := range []uint64{6_000, 1 << 30} {
		msg, err := decoderUnderTest.Encode(randomGradient(rng, dim, 300))
		if err != nil {
			t.Fatal(err)
		}
		mut := make([]byte, len(msg))
		step := 1
		if !thorough() {
			step = 3
		}
		for pos := 0; pos < len(msg); pos += step {
			overwrites := []byte{0x00, 0xFF, msg[pos] ^ 0x01, msg[pos] + 1}
			if !thorough() {
				overwrites = overwrites[1:2]
			}
			for _, b := range overwrites {
				copy(mut, msg)
				mut[pos] = b
				requireMatchesOracle(t, fmt.Sprintf("dim %d byte %d = %#x", dim, pos, b), mut, &dst)
			}
			requireMatchesOracle(t, fmt.Sprintf("dim %d cut at %d", dim, pos), msg[:pos], &dst)
		}
	}
}

// hostileAllocBound is what decoding one of the small hostile messages below
// may allocate with the destination and the pooled scratch warm: room for an
// error string and, should a collection have emptied the pool in between,
// for scratch sized by the message — nothing near a table over Dim.
const hostileAllocBound = 64 << 10

// craftedPane is one sign pane of a hand-assembled MinMax message: its
// bucket means, and per group the keys listed on the wire and the keys
// actually inserted into the group's sketch (at group-relative index 0).
type craftedPane struct {
	means    []float64
	listed   [][]uint64
	inserted [][]uint64
}

// craftMessage assembles a full-stack message (delta keys, quantized,
// MinMax) from explicit lists, so a test can say things no encoder would.
func craftMessage(t testing.TB, dim uint64, count uint32, panes [2]craftedPane) []byte {
	t.Helper()
	const seed = 0x1234
	flags := byte(smFlagDeltaKeys | smFlagQuantize | smFlagMinMax)
	if wideKeys(dim) {
		flags |= smFlagWideKeys
	}
	out := []byte{tagSketchML, flags}
	out = appendU64(out, dim)
	out = appendU32(out, count)
	out = appendU64(out, seed)
	out = appendU32(out, 256)
	for paneID, p := range panes {
		n := 0
		for _, l := range p.listed {
			n += len(l)
		}
		out = appendU32(out, uint32(n))
		if n == 0 {
			continue
		}
		out = appendU32(out, uint32(len(p.means)))
		for _, m := range p.means {
			out = appendF64(out, m)
		}
		// Wide sketches: a key that was not inserted finds only Empty bins.
		grouped := minmax.NewGrouped(2, 4096*len(p.listed), len(p.means), len(p.listed), hashing.Mix64(uint64(paneID), seed))
		if grouped.NumGroups() != len(p.listed) {
			t.Fatalf("pane %d: %d lists need at least as many means", paneID, len(p.listed))
		}
		for grp, keys := range p.inserted {
			grouped.InsertBlock(grp, keys, make([]uint16, len(keys)))
		}
		var err error
		if out, err = grouped.AppendBinary(out); err != nil {
			t.Fatal(err)
		}
		for _, keys := range p.listed {
			if out, err = keycoding.AppendDelta(out, keys); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestDecodeHostileLists feeds the decoder messages whose lists disagree
// with their header or with each other. Each is an error on both plans —
// Dim 1 200 takes the rank scatter (9 entries: 1 200 ≤ 128·9 + 64), Dim 2⁶³ the merge — none panics, and
// none makes the decoder allocate by Dim: the scatter's table is only ever
// sized for a message at least as long.
func TestDecodeHostileLists(t *testing.T) {
	means := []float64{0.5, 1.5}
	pane := func(lists ...[]uint64) craftedPane {
		return craftedPane{means: means, listed: lists, inserted: lists}
	}
	for _, dim := range []uint64{1_200, 1 << 63} {
		a, b := []uint64{3, 70, 900}, []uint64{5, 71, 1_000}
		neg := []uint64{8, 72, 1_100}
		cases := []struct {
			name    string
			msg     []byte
			wantErr bool
		}{
			{"honest", craftMessage(t, dim, 9, [2]craftedPane{pane(a, b), pane(neg)}), false},
			{"three keys", craftMessage(t, dim, 3, [2]craftedPane{pane(a), {}}), false},
			{"understated count", craftMessage(t, dim, 8, [2]craftedPane{pane(a, b), pane(neg)}), true},
			{"understated to a list boundary", craftMessage(t, dim, 6, [2]craftedPane{pane(a, b), pane(neg)}), true},
			{"overstated count", craftMessage(t, dim, 10, [2]craftedPane{pane(a, b), pane(neg)}), true},
			{"key in two groups", craftMessage(t, dim, 9, [2]craftedPane{pane(a, []uint64{5, 70, 1_000}), pane(neg)}), true},
			{"key in both panes", craftMessage(t, dim, 9, [2]craftedPane{pane(a, b), pane([]uint64{8, 71, 1_100})}), true},
			{"key = Dim", craftMessage(t, dim, 9, [2]craftedPane{pane(a, b), pane([]uint64{8, 72, dim})}), true},
			{"key > Dim", craftMessage(t, dim, 9, [2]craftedPane{pane(a, []uint64{5, 71, dim + 64}), pane(neg)}), true},
			{"key with every bin Empty", craftMessage(t, dim, 9, [2]craftedPane{
				{means: means, listed: [][]uint64{a, b}, inserted: [][]uint64{a, {5, 1_000}}}, pane(neg)}), true},
			{"non-finite mean in use", craftMessage(t, dim, 9, [2]craftedPane{
				{means: []float64{math.Inf(1), 1.5}, listed: [][]uint64{a, b}, inserted: [][]uint64{a, b}}, pane(neg)}), true},
			{"non-finite mean unused", craftMessage(t, dim, 6, [2]craftedPane{
				{means: []float64{0.5, 1.5, math.NaN()}, listed: [][]uint64{a, b, nil}, inserted: [][]uint64{a, b, nil}}, {}}), false},
		}
		for _, tc := range cases {
			what := fmt.Sprintf("dim %d: %s", dim, tc.name)
			var dst gradient.Sparse
			requireMatchesOracle(t, what, tc.msg, &dst) // and warms the pooled scratch
			var err error
			got := allocatedBytes(func() { err = decoderUnderTest.DecodeInto(tc.msg, &dst) })
			if (err != nil) != tc.wantErr {
				t.Errorf("%s: error %v, want an error: %v", what, err, tc.wantErr)
			}
			if got > hostileAllocBound {
				t.Errorf("%s: decoding %d bytes allocated %d, want at most %d", what, len(tc.msg), got, hostileAllocBound)
			}
		}
	}
}

// TestDecodeHostileDimNeverSizesScratch patches the Dim of a real 300-nnz
// message to values whose bitmap would be terabytes: the density test must
// send them to the merge, and the decode must fit in the memory a message
// that size is owed.
func TestDecodeHostileDimNeverSizesScratch(t *testing.T) {
	msg, err := decoderUnderTest.Encode(randomGradient(rand.New(rand.NewSource(64)), 1<<20, 300))
	if err != nil {
		t.Fatal(err)
	}
	var dst gradient.Sparse
	for _, dim := range []uint64{1 << 40, 1 << 63, math.MaxUint64 - 62, math.MaxUint64} {
		mut := append([]byte(nil), msg...)
		binary.LittleEndian.PutUint64(mut[2:], dim) // tag(1) flags(1), then dim
		requireMatchesOracle(t, fmt.Sprintf("dim %d", dim), mut, &dst)
		got := allocatedBytes(func() { err = decoderUnderTest.DecodeInto(mut, &dst) })
		if err != nil {
			t.Errorf("dim %d: %v", dim, err)
		}
		if got > hostileAllocBound {
			t.Errorf("dim %d: decode allocated %d bytes, want at most %d", dim, got, hostileAllocBound)
		}
	}
}
