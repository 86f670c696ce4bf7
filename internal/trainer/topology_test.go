package trainer

import (
	"math"
	"strings"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
)

// runTopology runs the standard small training problem under one gather
// topology and worker count, failing the test on any error.
func runTopology(t *testing.T, topo cluster.Topology, workers int, c codec.Codec, seed int64) *Result {
	t.Helper()
	train, test := smallData(t)
	res, err := Run(Config{
		Trainable:    model.Wrap(model.LogisticRegression{}),
		CodecFactory: shared(c),
		Optimizer:    adamFactory(0.1),
		Workers:      workers,
		Epochs:       2,
		Seed:         seed,
		Topology:     topo,
	}, train, test)
	if err != nil {
		t.Fatalf("topology %s, %d workers: %v", topo, workers, err)
	}
	return res
}

// TestTopologyEquivalenceRaw pins the tentpole equivalence property: with a
// lossless codec, a tree gather trains the same model as star. The
// aggregates are mathematically identical — each is the mean of the same W
// gradients — but not bit-identical, because the summation tree differs
// (star scales each gradient by 1/W and adds; tree sums exactly in the
// merge and scales once). The divergence is therefore pure float addition
// reordering, bounded here at 1e-9 on every per-epoch loss. The clean path
// must also accrue zero robustness counters at every topology point.
func TestTopologyEquivalenceRaw(t *testing.T) {
	for _, workers := range []int{2, 3, 7, 8} {
		star := runTopology(t, cluster.TopologyStar, workers, &codec.Raw{}, 7)
		for _, topo := range []cluster.Topology{cluster.TopologyTree} {
			res := runTopology(t, topo, workers, &codec.Raw{}, 7)
			if res.Topology != topo.String() {
				t.Errorf("W=%d %s: result labeled %q", workers, topo, res.Topology)
			}
			if len(res.Epochs) != len(star.Epochs) {
				t.Fatalf("W=%d %s: %d epochs vs star's %d", workers, topo, len(res.Epochs), len(star.Epochs))
			}
			for i := range res.Epochs {
				d := math.Abs(res.Epochs[i].TestLoss - star.Epochs[i].TestLoss)
				if d > 1e-9 {
					t.Errorf("W=%d %s epoch %d: loss %v diverges from star %v by %v (> 1e-9)",
						workers, topo, i, res.Epochs[i].TestLoss, star.Epochs[i].TestLoss, d)
				}
				es := res.Epochs[i]
				if es.Timeouts+es.SkippedGrads+es.CorruptFrames+es.StaleFrames+es.Strikes+es.DegradedRounds != 0 {
					t.Errorf("W=%d %s epoch %d: clean run accrued robustness counters: %+v", workers, topo, i, es)
				}
				sa := star.Epochs[i]
				if sa.Timeouts+sa.SkippedGrads+sa.CorruptFrames+sa.StaleFrames+sa.Strikes+sa.DegradedRounds != 0 {
					t.Errorf("W=%d star epoch %d: clean run accrued robustness counters: %+v", workers, i, sa)
				}
			}
			var merges int64
			for _, es := range res.Epochs {
				merges += es.Merges
			}
			// Tree merging needs an interior worker (first child index is
			// 2·0+2 = 2); a 2-worker tree is two root leaves.
			mergesExpected := workers > 2
			if mergesExpected && merges == 0 {
				t.Errorf("W=%d %s: no wire-to-wire merges recorded", workers, topo)
			}
			if !mergesExpected && merges != 0 {
				t.Errorf("W=%d %s: %d merges with nothing to merge", workers, topo, merges)
			}
		}
		var starMerges int64
		for _, es := range star.Epochs {
			starMerges += es.Merges
		}
		if starMerges != 0 || star.LevelMergeNs != nil {
			t.Errorf("W=%d star: merge accounting nonzero (merges %d, levels %v)", workers, starMerges, star.LevelMergeNs)
		}
	}
}

// TestTopologyEquivalenceSketchML pins the lossy-codec variant: SketchML
// merges re-bucket values (the exact-means path caps at Options.Buckets, and
// interior sums hit panes in a different composition than star's per-worker
// sketches), so tree is a *different valid sketch* of the same
// aggregate, not the same bytes. The contract here is (1) same-seed runs of
// each topology are bit-deterministic, and (2) every topology converges to a
// working model in the same neighborhood — the loss gap vs star stays within
// 20%, far tighter than the gap an actually broken merge produces (sign
// flips or dropped subtrees blow the loss up by integer factors).
func TestTopologyEquivalenceSketchML(t *testing.T) {
	newC := func() codec.Codec { return codec.MustSketchML(codec.DefaultOptions()) }
	for _, workers := range []int{3, 8} {
		star := runTopology(t, cluster.TopologyStar, workers, newC(), 7)
		for _, topo := range []cluster.Topology{cluster.TopologyTree} {
			a := runTopology(t, topo, workers, newC(), 7)
			b := runTopology(t, topo, workers, newC(), 7)
			for i := range a.Epochs {
				if a.Epochs[i].TestLoss != b.Epochs[i].TestLoss {
					t.Errorf("W=%d %s epoch %d: same-seed runs diverge: %v vs %v",
						workers, topo, i, a.Epochs[i].TestLoss, b.Epochs[i].TestLoss)
				}
			}
			if gap := math.Abs(a.FinalLoss - star.FinalLoss); gap > 0.20*star.FinalLoss {
				t.Errorf("W=%d %s: final loss %v vs star %v (gap %v exceeds 20%%)",
					workers, topo, a.FinalLoss, star.FinalLoss, gap)
			}
		}
	}
}

// TestTreeDecodedBytesScaling pins the acceptance criterion the topology
// exists for: at W=8 the tree driver decodes two merged messages instead of
// eight, so its decoded-byte total must be at most 40% of star's. The test
// runs in the regime where hierarchical merge pays: batches dense enough
// that sibling key sets overlap almost completely, so a merged message is
// barely larger than one worker's. (In the fully sparse-disjoint regime the
// union grows with the subtree and the driver decodes the same bytes either
// way — that trade-off is the DESIGN.md cost model, not a bug.)
func TestTreeDecodedBytesScaling(t *testing.T) {
	const workers = 8
	d, err := dataset.Generate(dataset.SyntheticConfig{
		N: 600, Dim: 256, AvgNNZ: 64, Task: dataset.Classification,
		NoiseStd: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.Split(0.75, 1)
	newC := func() codec.Codec {
		opts := codec.DefaultOptions()
		opts.MinMax = false // merged messages use the explicit-index layout; compare like with like
		return codec.MustSketchML(opts)
	}
	run := func(topo cluster.Topology) *Result {
		t.Helper()
		res, err := Run(Config{
			Trainable: model.Wrap(model.LogisticRegression{}), CodecFactory: newC,
			Optimizer: adamFactory(0.1), Workers: workers, Epochs: 2,
			BatchFraction: 0.5, Seed: 7, Topology: topo,
		}, train, test)
		if err != nil {
			t.Fatalf("topology %s: %v", topo, err)
		}
		return res
	}
	star := run(cluster.TopologyStar)
	tree := run(cluster.TopologyTree)
	var starBytes, treeBytes int64
	for _, es := range star.Epochs {
		starBytes += es.DecodedBytes
	}
	for _, es := range tree.Epochs {
		treeBytes += es.DecodedBytes
	}
	if starBytes == 0 || treeBytes == 0 {
		t.Fatalf("decoded-byte accounting missing: star %d, tree %d", starBytes, treeBytes)
	}
	if ratio := float64(treeBytes) / float64(starBytes); ratio > 0.40 {
		t.Errorf("tree driver decoded %d bytes, star %d: ratio %.2f exceeds 0.40", treeBytes, starBytes, ratio)
	}
	if tree.WorkerAggBytes == nil {
		t.Fatal("tree run carries no per-link aggregation byte accounting")
	}
	// W=8 interior workers (children 2w+2, 2w+3 < 8): 0, 1, and 2. The
	// leaves 3..7 must have received no child traffic.
	for w := 0; w < 3; w++ {
		if tree.WorkerAggBytes[w] == 0 {
			t.Errorf("interior worker %d received no aggregation bytes", w)
		}
	}
	for w := 3; w < 8; w++ {
		if tree.WorkerAggBytes[w] != 0 {
			t.Errorf("leaf worker %d received %d aggregation bytes", w, tree.WorkerAggBytes[w])
		}
	}
	// Merging happens at level 0 (workers 0, 1) and level 1 (worker 2);
	// deeper workers are leaves, so exactly two levels carry merge time.
	if len(tree.LevelMergeNs) != 2 {
		t.Fatalf("W=8 tree merges at 2 levels, got %v", tree.LevelMergeNs)
	}
	if tree.LevelMergeNs[0] <= 0 || tree.LevelMergeNs[1] <= 0 {
		t.Errorf("interior levels recorded no merge time: %v", tree.LevelMergeNs)
	}
}

// treeHarness builds the driver ends of a W-worker tree gather round the
// way RunContext does, returning the configured codec message for one
// gradient so tests can hand-assemble aggregate frames.
func treeHarness(t *testing.T, workers int) (Config, []*cluster.CountingConn, []cluster.Conn, *gradient.Sparse, []byte) {
	t.Helper()
	cfg, driverSide, workerSide, g, _ := gatherHarness(t, workers)
	cfg.Topology = cluster.TopologyTree
	msg, err := cfg.codec.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, driverSide, workerSide, g, msg
}

// TestTreeGatherWeightsByCount verifies the driver's unbiased-mean rule:
// aggregate frames carrying different counts are each weighted 1/total.
func TestTreeGatherWeightsByCount(t *testing.T) {
	const workers = 8
	cfg, driverSide, workerSide, g, msg := treeHarness(t, workers)
	// Root 0 reports a 5-gradient subtree, root 1 a 3-gradient subtree.
	if err := workerSide[0].Send(appendAggFrame(nil, 0, 5, msg)); err != nil {
		t.Fatal(err)
	}
	if err := workerSide[1].Send(appendAggFrame(nil, 0, 3, msg)); err != nil {
		t.Fatal(err)
	}
	acc := gradient.NewAccumulator(gatherDim)
	var es EpochStats
	var decode time.Duration
	if err := gatherRound(cfg, 0, driverSide, make([]int, workers), make([]gradient.Sparse, 2), nil, acc, &es, &decode); err != nil {
		t.Fatalf("clean tree gather: %v", err)
	}
	// Both messages decode to the same gradient; total = 8, so the
	// aggregate must be 2/8 of the decoded gradient.
	dec, err := cfg.codec.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	agg := acc.Sum()
	var wantSum, gotSum float64
	for _, v := range dec.Values {
		wantSum += v
	}
	for _, v := range agg.Values {
		gotSum += v
	}
	if d := math.Abs(gotSum - wantSum*2/8); d > 1e-9*math.Abs(wantSum) {
		t.Errorf("aggregate sum %v, want %v (2/8 of decoded sum)", gotSum, wantSum*2/8)
	}
	if es.DecodedBytes != int64(2*len(msg)) {
		t.Errorf("decoded bytes %d, want %d", es.DecodedBytes, 2*len(msg))
	}
	_ = g
}

// TestTreeGatherSubtreeQuorumBoundary walks the quorum edge at subtree
// granularity: at W=8 with minGatherFraction 0.5 the quorum is 4 summed
// gradients, so a lone 4-gradient subtree passes while a 3-gradient one
// aborts — the whole missing subtree degrades, never the whole run first.
func TestTreeGatherSubtreeQuorumBoundary(t *testing.T) {
	for _, tc := range []struct {
		count  int
		wantOK bool
	}{{4, true}, {3, false}} {
		cfg, driverSide, workerSide, _, msg := treeHarness(t, 8)
		cfg = tolerantCfg(cfg)
		// Root 1's whole subtree misses the deadline; root 0 arrives alone.
		if err := workerSide[0].Send(appendAggFrame(nil, 0, tc.count, msg)); err != nil {
			t.Fatal(err)
		}
		acc := gradient.NewAccumulator(gatherDim)
		var es EpochStats
		var decode time.Duration
		err := gatherRound(cfg, 0, driverSide, make([]int, 8), make([]gradient.Sparse, 2), nil, acc, &es, &decode)
		if tc.wantOK {
			if err != nil {
				t.Fatalf("count %d: gather aborted at quorum boundary: %v", tc.count, err)
			}
			if es.SkippedGrads != 8-tc.count || es.DegradedRounds != 1 {
				t.Errorf("count %d: counters %+v, want %d skipped and a degraded round", tc.count, es, 8-tc.count)
			}
		} else if err == nil || !strings.Contains(err.Error(), "quorum") {
			t.Fatalf("count %d: want quorum-loss abort, got %v", tc.count, err)
		}
	}
}

// TestTreeGatherStrictRejectsPartialTotal: strict mode has no degraded
// rounds — a tree round whose counts do not sum to exactly W is an abort.
func TestTreeGatherStrictRejectsPartialTotal(t *testing.T) {
	cfg, driverSide, workerSide, _, msg := treeHarness(t, 4)
	if err := workerSide[0].Send(appendAggFrame(nil, 0, 3, msg)); err != nil {
		t.Fatal(err)
	}
	if err := workerSide[1].Send(appendAggFrame(nil, 0, 2, msg)); err != nil {
		t.Fatal(err)
	}
	acc := gradient.NewAccumulator(gatherDim)
	var es EpochStats
	var decode time.Duration
	err := gatherRound(cfg, 0, driverSide, make([]int, 4), make([]gradient.Sparse, 2), nil, acc, &es, &decode)
	if err == nil || !strings.Contains(err.Error(), "strict tree gather") {
		t.Fatalf("want strict total mismatch abort, got %v", err)
	}
}

// TestAggregateCountBounded pins the bound on the gradient count an
// aggregate frame claims: it is read off the wire, and the one-byte frame
// checksum lets one corrupted frame in 256 through, so a count above the
// run's workers must be a corrupt frame — tolerant mode counts and discards
// it, strict mode aborts — and never a weight. Unbounded, root 0's 60000
// below drove SkippedGrads to 4 - 60001 and applied both messages at
// 1/60001.
func TestAggregateCountBounded(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, _, msg := treeHarness(t, workers)
	send := func() {
		t.Helper()
		if err := workerSide[0].Send(appendAggFrame(nil, 0, 60000, msg)); err != nil {
			t.Fatal(err)
		}
		if err := workerSide[1].Send(appendAggFrame(nil, 0, 1, msg)); err != nil {
			t.Fatal(err)
		}
	}
	send()
	acc := gradient.NewAccumulator(gatherDim)
	var es EpochStats
	var decode time.Duration
	err := gatherRound(cfg, 0, driverSide, make([]int, workers), make([]gradient.Sparse, 2), nil, acc, &es, &decode)
	if err == nil || !strings.Contains(err.Error(), "sums 60000 gradients") {
		t.Fatalf("strict gather: want an abort on the oversized count, got %v", err)
	}

	cfg, driverSide, workerSide, _, msg = treeHarness(t, workers)
	cfg = tolerantCfg(cfg)
	cfg.minGatherFraction = 0.25 // quorum 1: root 1's single gradient carries the round
	send()
	acc = gradient.NewAccumulator(gatherDim)
	es = EpochStats{}
	if err := gatherRound(cfg, 0, driverSide, make([]int, workers), make([]gradient.Sparse, 2), nil, acc, &es, &decode); err != nil {
		t.Fatalf("tolerant gather aborted: %v", err)
	}
	// One corrupt frame, the timeout that ended root 0's wait behind it, and
	// root 0's three-worker subtree skipped.
	if es.CorruptFrames != 1 || es.Timeouts != 1 || es.SkippedGrads != 3 || es.DegradedRounds != 1 {
		t.Errorf("counters %+v, want 1 corrupt frame, 1 timeout, 3 skipped gradients, 1 degraded round", es)
	}
	dec, err := cfg.codec.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	agg := acc.Sum()
	if len(agg.Values) != len(dec.Values) {
		t.Fatalf("aggregate has %d values, root 1's message %d", len(agg.Values), len(dec.Values))
	}
	for i := range agg.Values {
		if agg.Values[i] != dec.Values[i] {
			t.Fatalf("aggregate[%d] = %v, want root 1's %v at weight 1", i, agg.Values[i], dec.Values[i])
		}
	}
}

// TestTreeWorkerBoundsChildCount: the same bound holds one level down, where
// an interior worker adds its children's counts into the frame it forwards.
func TestTreeWorkerBoundsChildCount(t *testing.T) {
	const workers = 4
	cfg, _, _, g, msg := treeHarness(t, workers)
	cfg = tolerantCfg(cfg)
	childEnd, parentEnd := cluster.Pair(1)
	driverEnd, workerEnd := cluster.Pair(1)
	lk := &workerLinks{w: 0, children: []cluster.Conn{parentEnd}}
	if err := childEnd.Send(appendAggFrame(nil, 0, 60000, msg)); err != nil {
		t.Fatal(err)
	}
	var rep workerReport
	if err := gatherStep(cfg, lk, workerEnd, g, 0, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.corrupt != 1 || rep.merges != 0 {
		t.Errorf("worker report %+v, want the child's frame counted corrupt and nothing merged", rep)
	}
	up, err := driverEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if kind, _, _, err := parseFrame(up); err != nil || kind != frameGrad {
		t.Errorf("forwarded kind 0x%02x (err %v), want a frameGrad: the worker's own gradient alone", kind, err)
	}
}

// TestAggFrameRoundTrip covers the aggregate envelope itself, including the
// checksum interplay with parseFrame.
func TestAggFrameRoundTrip(t *testing.T) {
	msg := []byte{9, 8, 7, 6, 5}
	frame := appendAggFrame(nil, 3, 5, msg)
	kind, round, payload, err := parseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameAgg || round != 3 {
		t.Fatalf("kind 0x%02x round %d, want frameAgg round 3", kind, round)
	}
	count, body, err := parseAggFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 || string(body) != string(msg) {
		t.Fatalf("count %d body %v", count, body)
	}
	// Zero-count frames and truncated payloads must be parse failures.
	if _, _, err := parseAggFrame(appendAggFrame(nil, 0, 0, msg)[frameHeaderLen:]); err == nil {
		t.Error("zero gradient count accepted")
	}
	if _, _, err := parseAggFrame([]byte{1}); err == nil {
		t.Error("truncated aggregate payload accepted")
	}
	// Any single corrupted byte must trip the frame checksum.
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x10
		if _, _, _, err := parseFrame(bad); err == nil {
			t.Errorf("corruption at byte %d undetected", i)
		}
	}
}

// TestTopologyConfigValidation pins the fill-time rejections: unmergeable
// codecs, the TCP transport and over-wide runs all refuse tree.
func TestTopologyConfigValidation(t *testing.T) {
	train, test := smallData(t)
	base := Config{
		Trainable: model.Wrap(model.LogisticRegression{}), Optimizer: adamFactory(0.1),
		Workers: 2, Epochs: 1, Seed: 1,
	}

	unmergeable := base
	unmergeable.Topology = cluster.TopologyTree
	unmergeable.CodecFactory = shared(&codec.OneBit{})
	if _, err := Run(unmergeable, train, test); err == nil || !strings.Contains(err.Error(), "mergeable") {
		t.Errorf("unmergeable codec accepted for tree: %v", err)
	}

	tcp := base
	tcp.Topology = cluster.TopologyTree
	tcp.UseTCP = true
	if _, err := Run(tcp, train, test); err == nil || !strings.Contains(err.Error(), "in-memory") {
		t.Errorf("tree over TCP accepted: %v", err)
	}

	// The aggregate prefix carries the count as uint16.
	wide := base
	wide.Topology = cluster.TopologyTree
	wide.Workers = math.MaxUint16 + 1
	if _, err := Run(wide, train, test); err == nil || !strings.Contains(err.Error(), "at most 65535 workers") {
		t.Errorf("tree with %d workers accepted: %v", wide.Workers, err)
	}

	bad := base
	bad.Topology = cluster.Topology(99)
	if _, err := Run(bad, train, test); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Errorf("unknown topology accepted: %v", err)
	}
}

// TestAggLevel pins the level map the per-level merge accounting keys on.
func TestAggLevel(t *testing.T) {
	wantTree := map[int]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 1, 5: 1, 6: 2, 13: 2, 14: 3}
	for w, want := range wantTree {
		if got := aggLevel(cluster.TopologyTree, w); got != want {
			t.Errorf("tree level(%d) = %d, want %d", w, got, want)
		}
	}
	if got := aggLevel(cluster.TopologyStar, 0); got != -1 {
		t.Errorf("star level = %d, want -1", got)
	}
}
