package codec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"sketchml/internal/bitpack"
	"sketchml/internal/gradient"
	"sketchml/internal/hashing"
	"sketchml/internal/keycoding"
	"sketchml/internal/obs"
	"sketchml/internal/quantizer"
	"sketchml/internal/sketch/minmax"
)

// Options configures the SketchML codec. The zero value is not valid; start
// from DefaultOptions.
type Options struct {
	// Buckets is q, the number of quantile buckets per sign pane
	// (Section 3.2; the paper finds q=256 "often enough").
	Buckets int
	// SketchSize is m, the summary size of the paper's streaming quantile
	// sketch (default 128). NewSketchML rejects m < 2, but the codec does
	// not read it: it finds a pane's splits by sorting the pane, which has
	// no summary. The end-to-end benchmark sizes its GK and KLL timings
	// with it.
	SketchSize int
	// Rows is s, the number of MinMaxSketch hash tables (default 2,
	// matching the paper's "size of MinMaxSketch is 2 × d/5").
	Rows int
	// ColsFraction sets t, the total MinMaxSketch bins, as a fraction of
	// the pane's nonzero count (default 0.2 = d/5).
	ColsFraction float64
	// MinCols floors the bin count for tiny gradients (default 8).
	MinCols int
	// Groups is r, the most grouped sub-sketches a pane may use (default 8);
	// the worst-case decoded index error is Buckets/Groups (Section 3.3).
	// The encoder uses min(r, 255·n_pane/Dim) groups, at least one: a pane
	// sparser than Dim/255 is one sketch (a rule from when each group sent
	// its own byte-aligned key list; the grouping, and so every decoded
	// value, depends on it).
	Groups int
	// Seed selects the hash family shared by encoder and decoder.
	Seed uint64
	// Parallelism selects Encode's plan for the two sign panes: 0 (the
	// default) encodes them concurrently iff more than one CPU is
	// available (GOMAXPROCS > 1), 1 pins the serial plan, 2 or more always
	// encodes them concurrently. The encoded bytes are bit-identical at
	// every setting — it only changes wall time. Decode is unaffected by
	// this and by every other field but Metrics: it is a function of the
	// message alone, flags and shapes read from the wire.
	Parallelism int
	// Metrics, when non-nil, receives the codec's observability stream:
	// encode/decode counts and latencies, input floats vs. wire bytes, and
	// the quantile bucket-index distribution. nil (the default) disables
	// every instrument at the cost of one pointer compare per gated block;
	// the wire format is identical either way.
	Metrics *obs.Registry

	// Component switches for the Figure 8 ablation, which removes the
	// components from the top down: keys are always compressed (the "Key"
	// component; blocked Elias–Fano lists, where the paper has
	// delta-binary), Quantize adds "Quan" and MinMax, which requires
	// Quantize, adds "MinMax".
	Quantize bool // quantile-bucket quantification ("Quan")
	MinMax   bool // MinMaxSketch index compression ("MinMax")
}

// DefaultOptions returns the paper's default configuration with every
// component enabled.
func DefaultOptions() Options {
	return Options{
		Buckets:      256,
		SketchSize:   128,
		Rows:         2,
		ColsFraction: 0.2,
		MinCols:      8,
		Groups:       8,
		Seed:         0x5ee7c4b1d2a90f38,
		Quantize:     true,
		MinMax:       true,
	}
}

// SketchML is the paper's compression framework.
type SketchML struct {
	opts Options
	met  *codecMetrics // nil unless Options.Metrics is set
}

// NewSketchML validates opts and builds the codec.
func NewSketchML(opts Options) (*SketchML, error) {
	if opts.Buckets < 1 || opts.Buckets > 1<<16 {
		return nil, fmt.Errorf("codec: Buckets %d out of [1, 65536]", opts.Buckets)
	}
	if opts.SketchSize < 2 {
		return nil, fmt.Errorf("codec: SketchSize %d < 2", opts.SketchSize)
	}
	if opts.Rows < 1 {
		return nil, fmt.Errorf("codec: Rows %d < 1", opts.Rows)
	}
	if opts.ColsFraction <= 0 || opts.ColsFraction > 1 {
		return nil, fmt.Errorf("codec: ColsFraction %v out of (0, 1]", opts.ColsFraction)
	}
	if opts.MinCols < 1 {
		opts.MinCols = 1
	}
	if opts.Groups < 1 {
		return nil, fmt.Errorf("codec: Groups %d < 1", opts.Groups)
	}
	if opts.Parallelism < 0 {
		return nil, fmt.Errorf("codec: Parallelism %d < 0", opts.Parallelism)
	}
	if opts.MinMax && !opts.Quantize {
		return nil, errors.New("codec: MinMax requires Quantize")
	}
	return &SketchML{opts: opts, met: newCodecMetrics(opts.Metrics)}, nil
}

// MustSketchML is NewSketchML that panics on bad options; for tests and
// example binaries with literal configs.
func MustSketchML(opts Options) *SketchML {
	c, err := NewSketchML(opts)
	if err != nil {
		panic(err)
	}
	return c
}

// Options returns the codec's configuration.
func (c *SketchML) Options() Options { return c.opts }

// Name implements Codec: "SketchML" for the full stack, otherwise the
// ablation name the paper uses ("Adam+Key", "Adam+Key+Quan").
func (c *SketchML) Name() string {
	switch {
	case c.opts.MinMax:
		return "SketchML"
	case c.opts.Quantize:
		return "Adam+Key+Quan"
	default:
		return "Adam+Key"
	}
}

// Message flags. smFlagEFKeys names the key code of every key list of the
// message, blocked Elias–Fano, and is always set. smFlagDeltaKeys named
// the paper's delta-binary lists, a layout with a key list per MinMax group
// that no encoder writes any more: the decoder refuses a message with it
// set or with smFlagEFKeys clear. smFlagWideKeys records Dim > 2³² and no
// longer changes the layout.
const (
	smFlagDeltaKeys = 1 << 0
	smFlagQuantize  = 1 << 1
	smFlagMinMax    = 1 << 2
	smFlagWideKeys  = 1 << 3
	smFlagEFKeys    = 1 << 4
)

// Encode implements Codec: AppendEncode into a fresh message, sized once.
func (c *SketchML) Encode(g *gradient.Sparse) ([]byte, error) {
	return c.AppendEncode(nil, g)
}

// AppendEncode implements AppendEncoder, under the codec's encode meters.
func (c *SketchML) AppendEncode(dst []byte, g *gradient.Sparse) ([]byte, error) {
	m := c.met
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	out, _, err := c.encode(dst, g)
	if m != nil && err == nil {
		m.encodeNs.Since(t0)
		m.encodes.Inc()
		m.inFloats.Add(int64(len(g.Values)))
		m.outBytes.Add(int64(len(out) - len(dst)))
	}
	return out, err
}

// Analyze implements Analyzer.
func (c *SketchML) Analyze(g *gradient.Sparse) (Breakdown, error) {
	_, bd, err := c.encode(nil, g)
	return bd, err
}

// encode assembles the message in two pooled buffers — header and pane 0 in
// one, pane 1 in the other, so the panes can run side by side — and appends
// them to dst, growing it once: into a nil dst that is a message of exactly
// its size, the only thing a warm Encode allocates, and into a dst with room
// for it nothing. On error dst comes back unchanged.
func (c *SketchML) encode(dst []byte, g *gradient.Sparse) ([]byte, Breakdown, error) {
	head, tail := getBytes(), getBytes()
	defer putBytes(head)
	defer putBytes(tail)
	bd, err := c.encodeTo(head, tail, g)
	if err != nil {
		return dst, bd, err
	}
	out := slices.Grow(dst, len(*head)+len(*tail))
	return append(append(out, *head...), *tail...), bd, nil
}

// encodeTo writes the message into *head followed by *tail.
func (c *SketchML) encodeTo(head, tail *[]byte, g *gradient.Sparse) (Breakdown, error) {
	var bd Breakdown
	if err := g.Validate(); err != nil {
		return bd, err
	}
	// Rotate the hash seed per message, derived deterministically from the
	// gradient's content. A static seed would make the same keys collide in
	// the MinMaxSketch round after round, permanently decaying those
	// coordinates; rotation makes the decay average out across rounds. The
	// decoder reads the seed from the header.
	in := message{
		g:      g,
		seed:   hashing.Mix64(contentFingerprint(g), c.opts.Seed),
		quant:  c.opts.Quantize,
		minMax: c.opts.MinMax,
	}
	out := c.appendHeader(*head, &in)
	bd.Header = len(out)
	var err error
	if !in.quant {
		if out, err = appendUnquantized(out, &bd, g); err == nil {
			*head = out
		}
		return bd, err
	}

	// Panes are independent, and pane 1 always lands in *tail, so the two
	// plans write the same bytes: the concurrent one only moves pane 1 onto
	// a goroutine while pane 0 runs here.
	if c.concurrentPanes() {
		out, err = c.encodePanesConcurrently(out, tail, &bd, in)
	} else if out, err = c.timedPane(out, &bd, &in, 0); err == nil {
		*tail, err = c.timedPane(*tail, &bd, &in, 1)
	}
	if err != nil {
		return bd, err
	}
	*head = out
	return bd, nil
}

// message is what one message is written from — by Encode, or by MergeInto
// from the sum of its inputs: the gradient, the hash seed the header
// carries, and the layout.
type message struct {
	g             *gradient.Sparse
	seed          uint64
	quant, minMax bool
	// merge is set by MergeInto: a pane whose distinct values fit its
	// quantile budget then carries them exactly (mergeScratch.exactMeans).
	merge *mergeScratch
}

// appendHeader writes the message header: tag, flags, Dim, entry count and
// hash seed, and for a quantized message the configured bucket count
// (informational; each pane sends its own means table).
func (c *SketchML) appendHeader(out []byte, in *message) []byte {
	flags := byte(smFlagEFKeys)
	if in.quant {
		flags |= smFlagQuantize
	}
	if in.minMax {
		flags |= smFlagMinMax
	}
	if wideKeys(in.g.Dim) {
		flags |= smFlagWideKeys
	}
	out = append(out, tagSketchML, flags)
	out = appendU64(out, in.g.Dim)
	out = appendU32(out, uint32(len(in.g.Keys)))
	out = appendU64(out, in.seed)
	if in.quant {
		out = appendU32(out, uint32(c.opts.Buckets))
	}
	return out
}

// appendUnquantized writes the quantize-off body ("Adam+Key"): the key
// list, then every value as a float64.
func appendUnquantized(out []byte, bd *Breakdown, g *gradient.Sparse) ([]byte, error) {
	mark := len(out)
	out, err := keycoding.AppendEF(out, g.Keys)
	if err != nil {
		return nil, err
	}
	bd.Keys += len(out) - mark
	mark = len(out)
	for _, v := range g.Values {
		out = appendF64(out, v)
	}
	bd.Values += len(out) - mark
	return out, nil
}

// timedPane appends pane i to dst, under the pane-encode timer when metrics
// are on.
func (c *SketchML) timedPane(dst []byte, bd *Breakdown, in *message, i int) ([]byte, error) {
	var pt0 time.Time
	if c.met != nil {
		pt0 = time.Now()
	}
	dst, err := c.encodePane(dst, bd, in, uint64(i))
	if c.met != nil && err == nil {
		c.met.paneEncodeNs.Since(pt0)
	}
	return dst, err
}

// encodePanesConcurrently appends pane 0 to out while a goroutine writes
// pane 1 into *tail, and adds both panes' sizes to bd. What the goroutine
// shares lives on the heap, which is why it is declared here and not in the
// serial plan's frame; in arrives by value for the same reason.
func (c *SketchML) encodePanesConcurrently(out []byte, tail *[]byte, bd *Breakdown, in message) ([]byte, error) {
	var bd1 Breakdown
	var err1 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		*tail, err1 = c.timedPane(*tail, &bd1, &in, 1)
	}()
	out, err := c.timedPane(out, bd, &in, 0)
	<-done
	if err == nil {
		err = err1
	}
	bd.Header += bd1.Header
	bd.Keys += bd1.Keys
	bd.Values += bd1.Values
	bd.Meta += bd1.Meta
	return out, err
}

// contentFingerprint hashes a gradient's shape and a sample of its content
// into a per-message value for hash-seed rotation. It is deterministic for
// identical gradients.
func contentFingerprint(g *gradient.Sparse) uint64 {
	h := uint64(len(g.Keys))
	if n := len(g.Keys); n > 0 {
		h = hashing.Mix64(h, g.Keys[0])
		h = hashing.Mix64(h, g.Keys[n-1])
		h = hashing.Mix64(h, math.Float64bits(g.Values[0]))
		h = hashing.Mix64(h, math.Float64bits(g.Values[n-1]))
		h = hashing.Mix64(h, math.Float64bits(g.Values[n/2]))
	}
	return h
}

// paneBudget is the quantile budget of a pane of n entries: Options.Buckets,
// capped at n/16 and at least 2. The q-entry means table costs 8q bytes per
// pane, which only amortizes when n >> q (the paper's regime); the cap keeps
// the table a small fraction of a small gradient's message.
func (c *SketchML) paneBudget(n int) int {
	return max(2, min(c.opts.Buckets, n/16))
}

// encodePane serializes one sign pane of in.g: pane 0 holds the entries
// with value ≥ 0 (−0 included), pane 1 the negative ones as magnitudes.
// paneID also feeds the hash seed derivation.
func (c *SketchML) encodePane(out []byte, bd *Breakdown, in *message, paneID uint64) ([]byte, error) {
	es := getEncodeScratch()
	defer putEncodeScratch(es)
	keys, vals := es.takePane(in.g, paneID)
	out = appendU32(out, uint32(len(keys)))
	bd.Header += 4
	if len(keys) == 0 {
		return out, nil
	}
	q := c.paneBudget(len(keys))
	means, idx, ok := in.merge.exactMeans(vals, q)
	if !ok {
		bk := &es.buckets
		if err := quantizer.BuildQuantileInto(bk, vals, q); err != nil {
			return nil, err
		}
		means, idx = bk.Means(), bk.Index
		if in.merge == nil {
			c.met.observeBucketIndexes(&es.tallies, idx, len(means))
		}
	}
	mark := len(out)
	out = appendU32(out, uint32(len(means)))
	for _, m := range means {
		out = appendF64(out, m)
	}
	bd.Meta += len(out) - mark

	if !in.minMax {
		// Explicit bit-packed index array aligned with the pane key list.
		var err error
		mark = len(out)
		if out, err = keycoding.AppendEF(out, keys); err != nil {
			return nil, err
		}
		bd.Keys += len(out) - mark
		mark = len(out)
		out = bitpack.AppendBlock(out, idx, bitpack.BitsFor(len(means)))
		bd.Values += len(out) - mark
		return out, nil
	}

	// MinMaxSketch path: grouped sketch, the pane's key list and each key's
	// group.
	cols := int(c.opts.ColsFraction * float64(len(keys)))
	if cols < c.opts.MinCols {
		cols = c.opts.MinCols
	}
	// Adapt the group count to the key density: cap r so the expected gap
	// of a group's keys stays below 256. The cap was set when each group
	// sent its own delta-binary list, whose gaps r widened r-fold (Appendix
	// A.3's bytes/key = ⌈log2(rD/d)/8⌉); the pane now sends one list and
	// each key's group number, and the cap stays as it is: the grouping,
	// and so every decoded value, depends on it.
	groups := c.opts.Groups
	if fdim := float64(in.g.Dim); fdim > 0 {
		if maxR := int(255 * float64(len(keys)) / fdim); maxR < groups {
			groups = maxR
		}
	}
	if groups < 1 {
		groups = 1
	}
	grouped := &es.grouped
	grouped.Reshape(c.opts.Rows, cols, len(means), groups, hashing.Mix64(paneID, in.seed))
	ng, bpg := grouped.NumGroups(), grouped.BucketsPerGroup()

	// Resolve bucket → (group, group-relative index) once per bucket, so the
	// per-key pass below is a table lookup, then insert every key in key
	// order, each into its own group's sketch: the layout QueryEach reads
	// back, and min is order-free, so the cells are what a group-by-group
	// insertion leaves.
	es.route = quantizer.Resize(es.route, len(means))
	route := es.route
	for b := range route {
		route[b] = uint32(b/bpg)<<16 | uint32(b%bpg)
	}
	es.gids, es.rels = quantizer.Resize(es.gids, len(keys)), quantizer.Resize(es.rels, len(keys))
	gids, rels := es.gids, es.rels
	for i, b := range idx {
		gids[i], rels[i] = route[b]>>16, uint16(route[b])
	}
	grouped.InsertEach(keys, gids, rels)

	// The sketches, then the pane's one key list with each key's group
	// beside it in BitsFor(r) bits (nothing when r is 1). The list is
	// Quan's; r separate group lists would carry the same partition, but
	// each pays a lead, and on small dense panes their widened gaps cost
	// more than log2 r bits a key.
	var err error
	mark = len(out)
	if out, err = grouped.AppendPacked(out); err != nil {
		return nil, err
	}
	bd.Values += len(out) - mark
	mark = len(out)
	if out, err = keycoding.AppendEF(out, keys); err != nil {
		return nil, err
	}
	if ng > 1 {
		out = bitpack.AppendPacked(out, gids, bitpack.BitsFor(ng))
	}
	bd.Keys += len(out) - mark
	return out, nil
}

// decodeKeysInto reads an Elias–Fano key list of the message r reads into
// dst[:0]. dst's capacity is the most the list may hold — a longer one is an
// error, never an allocation — and the keys come back strictly ascending.
func decodeKeysInto(r *reader, dst []uint64) ([]uint64, error) {
	mark := r.off
	count, err := r.u32() // the list leads with its count
	if err != nil {
		return nil, err
	}
	if int64(count) > int64(cap(dst)) {
		return nil, fmt.Errorf("key list of %d runs past the header's count by %d", count, int64(count)-int64(cap(dst)))
	}
	r.off = mark
	keys, used, err := keycoding.DecodeEFInto(r.rest(), dst)
	if err != nil {
		return nil, err
	}
	if err := r.advance(used); err != nil {
		return nil, err
	}
	return keys, nil
}

// Decode implements Codec, returning a freshly allocated gradient. It is
// a thin wrapper over DecodeInto for callers that want a new result each
// call; steady-state callers reuse one gradient via DecodeInto and
// allocate nothing.
func (c *SketchML) Decode(data []byte) (*gradient.Sparse, error) {
	g := &gradient.Sparse{}
	if err := c.DecodeInto(data, g); err != nil {
		return nil, err
	}
	return g, nil
}

// DecodeInto implements DecoderInto: it decodes data into dst, reusing
// dst's key/value storage and growing it only when capacity falls short.
// On success dst holds the decoded gradient; on error dst's contents are
// unspecified. Like Decode it is safe for concurrent use provided each
// goroutine passes its own dst.
func (c *SketchML) DecodeInto(data []byte, dst *gradient.Sparse) error {
	m := c.met
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	err := c.decodeInto(data, dst)
	if m != nil && err == nil {
		m.decodeNs.Since(t0)
		m.decodes.Inc()
		m.inBytes.Add(int64(len(data)))
	}
	return err
}

func (c *SketchML) decodeInto(data []byte, dst *gradient.Sparse) error {
	r := reader{data: data}
	if err := checkTag(&r, tagSketchML); err != nil {
		return err
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	if flags&(smFlagEFKeys|smFlagDeltaKeys) != smFlagEFKeys {
		return fmt.Errorf("codec: flags %#02x: want the Elias–Fano key code alone", flags)
	}
	quant := flags&smFlagQuantize != 0
	mm := flags&smFlagMinMax != 0
	dim, err := r.u64()
	if err != nil {
		return err
	}
	count, err := r.u32()
	if err != nil {
		return err
	}
	seed, err := r.u64()
	if err != nil {
		return err
	}
	// The header's count sizes dst and the scratch, so bound it before
	// trusting it by what the message can hold: every entry costs at least
	// one bit, its highs bit in the Elias–Fano list. A count past that is
	// hostile.
	n := int(count)
	if n < 0 || n > 8*len(data) {
		return fmt.Errorf("codec: count %d exceeds what a message of %d bytes holds", count, len(data))
	}
	dst.Dim = dim
	dst.Keys, dst.Values = quantizer.Resize(dst.Keys, n), quantizer.Resize(dst.Values, n)

	if !quant {
		keys, err := decodeKeysInto(&r, dst.Keys[:0])
		if err != nil {
			return err
		}
		if len(keys) != n {
			return fmt.Errorf("codec: key count %d, header says %d", len(keys), count)
		}
		if int64(r.remain()) < int64(n)*8 {
			return errTruncated
		}
		for i := range dst.Values {
			if dst.Values[i], err = r.f64(); err != nil {
				return err
			}
		}
		if err := dst.Validate(); err != nil {
			return fmt.Errorf("codec: corrupt message: %w", err)
		}
		return nil
	}

	if _, err := r.u32(); err != nil { // configured bucket count (informational)
		return err
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.reset(n)

	// Each pane is one window of the flat stores: pane 0's first entries
	// (split of them), then pane 1's.
	var split int
	for paneID := uint64(0); paneID < 2; paneID++ {
		var pt0 time.Time
		if c.met != nil {
			pt0 = time.Now()
		}
		if err := c.decodePaneInto(&r, sc, mm, paneID, seed); err != nil {
			return fmt.Errorf("codec: pane %d: %w", paneID, err)
		}
		if c.met != nil {
			c.met.paneDecodeNs.Since(pt0)
		}
		if paneID == 0 {
			split = sc.used
		}
	}
	if sc.used != n {
		return fmt.Errorf("codec: decoded %d entries, header says %d", sc.used, count)
	}

	// The panes are disjoint and each ascending; what is left is to put
	// their union in key order. A message dense enough that a Dim-bit map is
	// no longer than its entries — ⌈Dim/64⌉ ≤ 2n + 1, a test on the message
	// alone, so not a choice anyone makes — has each key's rank read off the
	// map and no two keys compared. The sparser ones merge the two panes,
	// which also keeps a hostile Dim from sizing anything.
	if dim <= 128*uint64(n)+64 {
		if err := rankScatterInto(dst, sc); err != nil {
			return err
		}
		if !sc.nonFinite {
			return nil // ascending by construction, key < Dim checked, means all finite
		}
	} else if err := mergePanesInto(dst, sc, split); err != nil {
		return err
	}
	if err := dst.Validate(); err != nil {
		return fmt.Errorf("codec: merged gradient invalid: %w", err)
	}
	return nil
}

// decodePaneInto parses one sign pane into the next window of sc's flat
// stores: the pane's key list as sent, and beside each key the value its
// bucket decodes to, already signed. Once sc's capacities are warm it
// allocates nothing.
func (c *SketchML) decodePaneInto(r *reader, sc *decodeScratch, mm bool, paneID, seed uint64) error {
	paneCount, err := r.u32()
	if err != nil {
		return err
	}
	if paneCount == 0 {
		return nil
	}
	nMeans, err := r.u32()
	if err != nil {
		return err
	}
	if nMeans == 0 || nMeans > 1<<16 {
		return fmt.Errorf("implausible means count %d", nMeans)
	}
	if int64(r.remain()) < int64(nMeans)*8 {
		return errTruncated
	}
	// Pane 1 carries magnitudes: negating its q means here is the same bits
	// as negating the n values they decode to.
	sc.means = quantizer.Resize(sc.means, int(nMeans))
	means := sc.means
	for i := range means {
		m, err := r.f64()
		if err != nil {
			return err
		}
		if paneID == 1 {
			m = -m
		}
		if math.IsNaN(m) || math.IsInf(m, 0) {
			sc.nonFinite = true
		}
		means[i] = m
	}

	if !mm {
		keys, vals, err := sc.decodeList(r)
		if err != nil {
			return err
		}
		idx, used, err := bitpack.DecodeBlockInto(r.rest(), sc.idx[:0])
		if err != nil {
			return err
		}
		sc.idx = idx
		if err := r.advance(used); err != nil {
			return err
		}
		if len(idx) != len(keys) {
			return fmt.Errorf("%d indexes for %d keys", len(idx), len(keys))
		}
		for i, id := range idx {
			if int(id) >= len(means) {
				return fmt.Errorf("index %d out of %d buckets", id, len(means))
			}
			vals[i] = means[id]
		}
		return nil
	}

	// The MinMax body: the packed group sketches, the pane's key list and,
	// when there is more than one group, each key's group number. Each key's
	// value is the mean of the bucket its group's sketch gives it; a bucket
	// past the sketch's q or the means table clamps to the last of both, and
	// a group number past the last finds nothing, which is an error.
	grouped, used, err := minmax.DecodeGroupedPackedReuse(r.rest(), hashing.Mix64(paneID, seed), sc.grouped)
	if err != nil {
		return err
	}
	sc.grouped = grouped
	if err := r.advance(used); err != nil {
		return err
	}
	keys, vals, err := sc.decodeList(r)
	if err != nil {
		return err
	}
	sc.idx = quantizer.Resize(sc.idx, len(keys))
	if ng := grouped.NumGroups(); ng > 1 {
		if sc.idx, used, err = bitpack.DecodePackedInto(r.rest(), len(keys), bitpack.BitsFor(ng), sc.idx); err != nil {
			return err
		}
		if err := r.advance(used); err != nil {
			return err
		}
	} else {
		clear(sc.idx)
	}
	grp := sc.idx
	sc.cand = quantizer.Resize(sc.cand, len(keys))
	grouped.QueryEach(keys, grp, sc.cand)
	top, bpg := min(grouped.NumBuckets(), len(means))-1, grouped.BucketsPerGroup()
	for i, cand := range sc.cand {
		if cand == 0 {
			return fmt.Errorf("key %d missing from group %d's sketch", keys[i], grp[i])
		}
		vals[i] = means[min(int(grp[i])*bpg+int(cand)-1, top)]
	}
	return nil
}

// rankScatterInto writes sc's entries to dst in key order without comparing
// keys, through a table of one word per 32 keys of [0, Dim): the low half is
// a bitmap of the keys present, the high half the number of keys below the
// word, so a key's place in dst — its word's count plus the set bits below
// its own — is one load. Pass 1 sets the bits (a bit already set is a key
// sent in both panes), pass 2 runs the popcount along the words, pass 3
// scatters. dst has the length of the flat stores.
func rankScatterInto(dst *gradient.Sparse, sc *decodeScratch) error {
	sc.ranks = quantizer.Resize(sc.ranks, int((dst.Dim+31)/32))
	ranks := sc.ranks
	clear(ranks)
	for _, k := range sc.keys {
		if k >= dst.Dim {
			return fmt.Errorf("codec: merged gradient invalid: key %d >= dim %d", k, dst.Dim)
		}
		bit := uint64(1) << (k % 32)
		if ranks[k/32]&bit != 0 {
			return fmt.Errorf("codec: duplicate key %d across panes", k)
		}
		ranks[k/32] |= bit
	}
	var below uint64
	for w, present := range ranks {
		ranks[w] |= below << 32
		below += uint64(bits.OnesCount32(uint32(present)))
	}
	vals := sc.vals[:len(sc.keys)]
	for i, k := range sc.keys {
		e := ranks[k/32]
		rank := int(e>>32) + bits.OnesCount32(uint32(e)&(1<<(k%32)-1))
		dst.Keys[rank] = k
		dst.Values[rank] = vals[i]
	}
	return nil
}

// mergePanesInto merges the two panes' ascending windows of sc's flat
// stores — pane 0's first split entries, then pane 1's — into dst, which
// has the length of the flat stores: the plan for the sparse messages the
// rank scatter leaves. A key in both panes is an error.
func mergePanesInto(dst *gradient.Sparse, sc *decodeScratch, split int) error {
	keys, vals := sc.keys[:len(dst.Keys)], sc.vals[:len(dst.Keys)]
	i, j := 0, split
	for out := range dst.Keys {
		if j == len(keys) || (i < split && keys[i] < keys[j]) {
			dst.Keys[out], dst.Values[out] = keys[i], vals[i]
			i++
			continue
		}
		if i < split && keys[i] == keys[j] {
			return fmt.Errorf("codec: duplicate key %d across panes", keys[j])
		}
		dst.Keys[out], dst.Values[out] = keys[j], vals[j]
		j++
	}
	return nil
}
