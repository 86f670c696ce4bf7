package codec

import (
	"fmt"
	"math/rand"
	"testing"

	"sketchml/internal/bitpack"
	"sketchml/internal/gradient"
	"sketchml/internal/keycoding"
	"sketchml/internal/sketch/minmax"
)

// BenchmarkEncodeDecode measures the codec hot path across the operating
// points that matter for the paper's economics: bucket count q (quantization
// resolution), group count r (MinMaxSketch splitting) and gradient sparsity.
// Encode is benched on the serial plan (par1) at every point and at
// Parallelism 0 (parmax: concurrent panes iff GOMAXPROCS > 1, which the -N
// suffix of the row's name records) at the larger ones; decode has
// one plan, so Decode and DecodeInto appear once per point. Allocation
// reporting is on throughout; at a short -benchtime allocs/op includes pool
// refills, and what a warm call allocates is pinned by TestEncodeAllocsWarm
// and TestDecodeIntoZeroAllocWarm. compressed-B/msg reports the wire size,
// tying the CPU cost to the bytes it saves.
//
// r in a row's name is Options.Groups, the most the encoder may use: its
// group cap (255·n_pane/Dim) leaves one group at every nnz the Dim = 2²²
// points run. The d2e6 points are the end-to-end benchmark's two message
// shapes, a worker gradient and the W = 4 aggregate at Dim = 2·10⁶, where
// the cap leaves several groups a pane; their DecodeInto rows report the
// groups the message really carries (groups) and the cost per entry
// (ns/nnz).
func BenchmarkEncodeDecode(b *testing.B) {
	type shape struct {
		dim uint64
		nnz int
	}
	type point struct {
		buckets int // q
		groups  int // r
		shape
		parmax bool // also bench Encode with concurrent panes
	}
	points := []point{
		{256, 8, shape{1 << 22, 500}, false},
		{256, 8, shape{1 << 22, 5000}, true},
		{256, 8, shape{1 << 22, 50000}, true},
		{64, 8, shape{1 << 22, 5000}, false},
		{256, 16, shape{1 << 22, 5000}, false},
		{256, 8, shape{2_000_000, 40000}, false},
		{256, 8, shape{2_000_000, 122000}, false},
	}
	rng := rand.New(rand.NewSource(77))
	grads := map[shape]*gradient.Sparse{}
	for _, p := range points {
		if grads[p.shape] == nil {
			grads[p.shape] = randomGradient(rng, p.dim, p.nnz)
		}
	}

	for _, p := range points {
		opts := DefaultOptions()
		opts.Buckets = p.buckets
		opts.Groups = p.groups
		opts.Parallelism = 1
		c := MustSketchML(opts)
		g := grads[p.shape]
		name := fmt.Sprintf("q%d_r%d_nnz%d", p.buckets, p.groups, p.nnz)
		if p.dim != 1<<22 {
			name += "_d2e6"
		}

		msg, err := c.Encode(g)
		if err != nil {
			b.Fatalf("%s: encode: %v", name, err)
		}

		benchEncode := func(label string, c *SketchML) {
			b.Run("Encode/"+name+"_"+label, func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(len(msg)), "compressed-B/msg")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Encode(g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		benchEncode("par1", c)
		if p.parmax {
			// The label is the same on every host; the -N suffix records
			// which plan ran.
			opts.Parallelism = 0
			benchEncode("parmax", MustSketchML(opts))
		}
		b.Run("Decode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(msg)), "compressed-B/msg")
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(msg); err != nil {
					b.Fatal(err)
				}
			}
		})
		// DecodeInto with a reused destination is the steady-state receive
		// path: once the destination and pooled scratch warm up it runs
		// allocation-free (TestDecodeIntoZeroAllocWarm).
		b.Run("DecodeInto/"+name, func(b *testing.B) {
			var dst gradient.Sparse
			if err := c.DecodeInto(msg, &dst); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.DecodeInto(msg, &dst); err != nil {
					b.Fatal(err)
				}
			}
			// countGroups allocates; keep it out of this row's allocs/op.
			b.StopTimer()
			b.ReportMetric(float64(len(msg)), "compressed-B/msg")
			if p.dim != 1<<22 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p.nnz), "ns/nnz")
				b.ReportMetric(float64(countGroups(b, msg)), "groups")
			}
		})
	}

	// The uncompressed baseline at the end-to-end benchmark's two shapes: what
	// the SketchML rows above have to beat is this plus the network time of
	// six times the bytes.
	for _, sh := range []shape{{2_000_000, 40000}, {2_000_000, 122000}} {
		c := &Raw{}
		g := grads[sh]
		name := fmt.Sprintf("nnz%d_d2e6", sh.nnz)
		msg, err := c.Encode(g)
		if err != nil {
			b.Fatalf("Raw/%s: encode: %v", name, err)
		}
		b.Run("Raw/Encode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(msg)))
			for i := 0; i < b.N; i++ {
				if _, err := c.Encode(g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.nnz), "ns/nnz")
		})
		b.Run("Raw/DecodeInto/"+name, func(b *testing.B) {
			var dst gradient.Sparse
			if err := c.DecodeInto(msg, &dst); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(msg)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.DecodeInto(msg, &dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sh.nnz), "ns/nnz")
		})
	}
}

// countGroups walks a default-options message (MinMax on, Elias–Fano keys)
// and returns how many MinMax groups its panes carry together.
func countGroups(tb testing.TB, msg []byte) int {
	tb.Helper()
	// tag(1) flags(1) dim(8) count(4) seed(8) buckets(4), then the panes.
	r := reader{data: msg, off: 26}
	skip := func(used int, err error) {
		if err == nil {
			err = r.advance(used)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	groups := 0
	for pane := 0; pane < 2; pane++ {
		n, err := r.u32()
		skip(0, err)
		if n == 0 {
			continue
		}
		q, err := r.u32()
		skip(8*int(q), err)
		grouped, used, err := minmax.DecodeGroupedPackedReuse(r.rest(), 0, nil)
		skip(used, err)
		keys, used, err := keycoding.DecodeEFInto(r.rest(), nil)
		skip(used, err)
		ng := grouped.NumGroups()
		groups += ng
		if ng > 1 {
			_, used, err := bitpack.DecodePackedInto(r.rest(), len(keys), bitpack.BitsFor(ng), nil)
			skip(used, err)
		}
	}
	if r.remain() != 0 {
		tb.Fatalf("%d bytes left after the last pane", r.remain())
	}
	return groups
}

// BenchmarkMerge measures the wire-to-wire MergeInto path that interior
// tree nodes run once per child per round: decode both inputs structurally,
// sum the key union, re-emit one message. The points span both output
// paths — palette panes stay on the exact-means path, random ones overflow
// the cap and re-quantize through the same builder Encode uses, which is
// what a tree run's merges do on every pane after the first round; both
// are allocation-free warm. Raw rows price the lossless alternative a tree of adam workers
// would pay. merged-B/msg ties the CPU cost to the bytes the merge puts
// back on the uplink.
func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	opts := DefaultOptions()
	opts.MinMax = false // merged output is MinMax-off; bench the mergeable config
	// paletteGradient draws values from a small fixed set of magnitudes —
	// the shape of an already-quantized message, whose decoded values are
	// bucket means. With few distinct sums the merge stays on the
	// exact-means path; fully random values overflow the cap and price the
	// re-quantize path instead.
	paletteGradient := func(nnz, palette int) *gradient.Sparse {
		mags := make([]float64, palette)
		for i := range mags {
			mags[i] = (rng.ExpFloat64() + 0.1) * 0.02
		}
		m := map[uint64]float64{}
		for len(m) < nnz {
			v := mags[rng.Intn(palette)]
			if rng.Intn(2) == 0 {
				v = -v
			}
			m[uint64(rng.Int63n(1<<22))] = v
		}
		return gradient.FromMap(1<<22, m)
	}
	type point struct {
		name    string
		m       Merger
		nnz     int
		palette int // 0 = fully random values (re-quantize path)
	}
	points := []point{
		{"SketchML_exact_nnz5000", MustSketchML(opts), 5000, 32},
		{"SketchML_requant_nnz5000", MustSketchML(opts), 5000, 0},
		{"SketchML_requant_nnz50000", MustSketchML(opts), 50000, 0},
		{"Raw_nnz5000", &Raw{}, 5000, 0},
		{"Raw_nnz50000", &Raw{}, 50000, 0},
	}
	for _, p := range points {
		c := p.m.(Codec)
		gen := func() *gradient.Sparse {
			if p.palette > 0 {
				return paletteGradient(p.nnz, p.palette)
			}
			return randomGradient(rng, 1<<22, p.nnz)
		}
		ma, err := c.Encode(gen())
		if err != nil {
			b.Fatal(err)
		}
		mb, err := c.Encode(gen())
		if err != nil {
			b.Fatal(err)
		}
		b.Run("MergeInto/"+p.name, func(b *testing.B) {
			dst, err := p.m.MergeInto(nil, ma, mb)
			if err != nil {
				b.Fatal(err)
			}
			merged := len(dst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = p.m.MergeInto(dst, ma, mb); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(merged), "merged-B/msg")
		})
	}
}
