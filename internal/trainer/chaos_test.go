package trainer

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
)

// Tolerant-gather unit tests run unconditionally; the full chaos soak at
// the bottom is gated behind SKETCHML_CHAOS_SOAK=1 (see `make chaos-soak`)
// because it deliberately burns real wall-clock time on round deadlines.

// tolerantCfg upgrades the gather harness config to degraded-round mode
// with explicit knobs (the harness bypasses Config.fill).
func tolerantCfg(cfg Config) Config {
	cfg.RoundDeadline = 80 * time.Millisecond
	cfg.minGatherFraction = 0.5
	cfg.maxStrikes = 3
	return cfg
}

func TestTolerantGatherProceedsWithMissingWorker(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, g, msg := gatherHarness(t, workers)
	cfg = tolerantCfg(cfg)
	for w := 0; w < workers; w++ {
		if w == 3 {
			continue // silent worker: its gradient never arrives
		}
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	strikes := make([]int, workers)
	var es EpochStats
	var decode time.Duration
	if err := gatherRound(cfg, 0, driverSide, strikes, make([]gradient.Sparse, workers), nil, acc, &es, &decode); err != nil {
		t.Fatalf("degraded round aborted: %v", err)
	}
	if es.Timeouts != 1 || es.SkippedGrads != 1 || es.Strikes != 1 || es.DegradedRounds != 1 {
		t.Errorf("counters = %+v, want one timeout/skip/strike/degraded round", es)
	}
	if strikes[3] != 1 {
		t.Errorf("strikes = %v, want worker 3 at 1", strikes)
	}
	// Three arrivals at weight 1/3 must reconstruct roughly the decoded
	// gradient mean: sum over the accumulated vector should be close to the
	// sketch-decoded single gradient's sum (all three sent the same bytes).
	want, err := cfg.codec.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	var wantSum, gotSum float64
	for _, v := range want.Values {
		wantSum += v
	}
	agg := acc.Sum()
	for _, v := range agg.Values {
		gotSum += v
	}
	if diff := wantSum - gotSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("rescaled aggregate sum %v != single-gradient sum %v", gotSum, wantSum)
	}
	_ = g
}

func TestTolerantGatherQuorumLoss(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	cfg = tolerantCfg(cfg)
	cfg.minGatherFraction = 0.75 // quorum: 3 of 4
	for w := 0; w < 2; w++ {
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	var es EpochStats
	var decode time.Duration
	err := gatherRound(cfg, 0, driverSide, make([]int, workers), make([]gradient.Sparse, workers), nil, acc, &es, &decode)
	if err == nil || !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("expected quorum-loss abort, got %v", err)
	}
}

func TestTolerantGatherMaxStrikesAborts(t *testing.T) {
	const workers = 2
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	cfg = tolerantCfg(cfg)
	if err := workerSide[0].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
		t.Fatal(err)
	}
	strikes := make([]int, workers)
	strikes[1] = cfg.maxStrikes - 1 // one more miss crosses the line
	acc := gradient.NewAccumulator(gatherDim)
	var es EpochStats
	var decode time.Duration
	err := gatherRound(cfg, 0, driverSide, strikes, make([]gradient.Sparse, workers), nil, acc, &es, &decode)
	if err == nil || !strings.Contains(err.Error(), "consecutive") {
		t.Fatalf("expected max-strikes abort, got %v", err)
	}
}

func TestTolerantGatherSkipsStaleAndCorruptFrames(t *testing.T) {
	const workers = 2
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	cfg = tolerantCfg(cfg)
	// The harness pairs have depth 1; this test queues three frames ahead
	// of the gather, so worker 0 gets a deeper link.
	a, b := cluster.Pair(4)
	driverSide[0], workerSide[0] = cluster.NewCounting(a), b
	// Worker 0's queue: a stale frame from round 3, a corrupt frame, then
	// the real round-5 gradient. The gather must discard the first two and
	// still accept the third within the same deadline budget.
	if err := workerSide[0].Send(appendFrame(nil, frameGrad, 3, msg)); err != nil {
		t.Fatal(err)
	}
	if err := workerSide[0].Send([]byte{0xFF, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := workerSide[0].Send(appendFrame(nil, frameGrad, 5, msg)); err != nil {
		t.Fatal(err)
	}
	if err := workerSide[1].Send(appendFrame(nil, frameGrad, 5, msg)); err != nil {
		t.Fatal(err)
	}
	acc := gradient.NewAccumulator(gatherDim)
	var es EpochStats
	var decode time.Duration
	if err := gatherRound(cfg, 5, driverSide, make([]int, workers), make([]gradient.Sparse, workers), nil, acc, &es, &decode); err != nil {
		t.Fatal(err)
	}
	if es.StaleFrames != 1 || es.CorruptFrames != 1 {
		t.Errorf("stale=%d corrupt=%d, want 1 and 1", es.StaleFrames, es.CorruptFrames)
	}
	if es.DegradedRounds != 0 || es.SkippedGrads != 0 {
		t.Errorf("round wrongly degraded: %+v", es)
	}
}

// TestTolerantCleanRunMatchesStrict pins that enabling the deadline on a
// fault-free run changes nothing: all W gradients arrive every round, the
// 1/W weighting matches the strict path bit for bit.
func TestTolerantCleanRunMatchesStrict(t *testing.T) {
	train, test := smallData(t)
	base := Config{
		Trainable: model.Wrap(model.LogisticRegression{}), CodecFactory: shared(codec.MustSketchML(codec.DefaultOptions())),
		Optimizer: adamFactory(0.1), Workers: 3, Epochs: 2, Seed: 5,
	}
	strict, err := Run(base, train, test)
	if err != nil {
		t.Fatal(err)
	}
	tol := base
	tol.RoundDeadline = 2 * time.Second
	got, err := Run(tol, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if got.FinalLoss != strict.FinalLoss {
		t.Errorf("tolerant clean run loss %v != strict %v", got.FinalLoss, strict.FinalLoss)
	}
	for i := range got.Epochs {
		es := got.Epochs[i]
		if es.Timeouts+es.SkippedGrads+es.CorruptFrames+es.StaleFrames+es.Strikes+es.DegradedRounds != 0 {
			t.Errorf("epoch %d: clean run accrued robustness counters: %+v", i, es)
		}
	}
	if got.WorkerTimeouts != 0 || got.WorkerSkippedSteps != 0 || got.LostReports != 0 || got.WorkerFailures != 0 {
		t.Errorf("clean run reported worker-side faults: %+v", got)
	}
}

// soakCounters condenses the per-epoch robustness counters for comparison.
type soakCounters struct {
	timeouts, skipped, corrupt, stale, strikes, degraded int
}

func soakTally(r *Result) soakCounters {
	var c soakCounters
	for _, es := range r.Epochs {
		c.timeouts += es.Timeouts
		c.skipped += es.SkippedGrads
		c.corrupt += es.CorruptFrames
		c.stale += es.StaleFrames
		c.strikes += es.Strikes
		c.degraded += es.DegradedRounds
	}
	return c
}

// TestChaosSoak trains under sustained injected faults — frame drops,
// corruption, duplication, delays, and one worker's mid-run disconnect +
// rejoin — once per gather topology, and demands the four headline
// robustness properties of each:
//
//  1. the run completes (no deadlock, no abort) under -race;
//  2. the fault schedule and every driver-side robustness counter are
//     exactly reproducible from the seed;
//  3. training quality stays within 10% of the fault-free baseline;
//  4. the degraded-round machinery demonstrably engaged (counters nonzero).
//
// What differs per topology is row data: which worker's link goes dark and
// what the driver must have seen of it.
//
//   - star: worker 2 disconnects; the driver sees timeouts, strikes, stale
//     and corrupt frames first-hand, and worker 2 rejoins by round-tag
//     fast-forward.
//   - tree: worker 0 is the interior node merging the subtree {0, 2, 3}
//     wire-to-wire before anything reaches the driver, and the outage hits
//     its driver link, so the driver transiently loses that whole merged
//     subtree and must degrade at subtree granularity (three gradients
//     skipped per missed round) while worker 1's root keeps quorum alive.
//     Faults on the child uplinks are absorbed below the driver: the
//     interior node counts them and delivers a partial count, so corrupt
//     frames are looked for at both levels and the interior-node counters
//     must reproduce too.
//
// Gated behind SKETCHML_CHAOS_SOAK=1 because each run spends real
// wall-clock time on expired round deadlines. SKETCHML_CHAOS_SEED overrides
// the fault seed (the race matrix sweeps a second seed this way).
func TestChaosSoak(t *testing.T) {
	if os.Getenv("SKETCHML_CHAOS_SOAK") != "1" {
		t.Skip("set SKETCHML_CHAOS_SOAK=1 (or run `make chaos-soak`) to enable")
	}
	seed := int64(1)
	if s := os.Getenv("SKETCHML_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad SKETCHML_CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	rows := []struct {
		topo       cluster.Topology
		outage     int  // worker whose link drops frame ordinals [12, 15)
		minSkipped int  // gradients the outage must have cost the driver
		merges     bool // workers merge wire-to-wire on the driver's behalf
		// driverSeesAll: strikes, corrupt and stale frames all reach the
		// driver itself; otherwise corrupt frames may be caught by a worker.
		driverSeesAll bool
		// rejoins: the outage worker's broadcast waits expire and it
		// fast-forwards onto a later round.
		rejoins bool
		// workerCounters: the workers' own fault counters reproduce.
		workerCounters bool
	}{
		{topo: cluster.TopologyStar, outage: 2, minSkipped: 1, driverSeesAll: true, rejoins: true},
		{topo: cluster.TopologyTree, outage: 0, minSkipped: 3, merges: true, workerCounters: true},
	}
	train, test := smallData(t)
	for _, row := range rows {
		t.Run(row.topo.String(), func(t *testing.T) {
			base := Config{
				Trainable:    model.Wrap(model.LogisticRegression{}),
				CodecFactory: shared(codec.MustSketchML(codec.DefaultOptions())),
				Optimizer:    adamFactory(0.1),
				Workers:      4,
				Epochs:       3,
				Lambda:       0.01,
				Seed:         2,
				Topology:     row.topo,
			}
			clean, err := Run(base, train, test)
			if err != nil {
				t.Fatal(err)
			}

			chaosCfg := base
			chaosCfg.RoundDeadline = 250 * time.Millisecond
			// Quorum of 1: the soak exercises degraded rounds and strikes, not
			// the quorum abort (unit-tested above); a higher floor would make
			// rare multi-worker coincidence rounds abort the whole soak.
			chaosCfg.minGatherFraction = 0.25
			chaosCfg.maxStrikes = 10
			chaosCfg.chaos = &cluster.ChaosSpec{
				Seed:        seed,
				RecvDrop:    0.06, // ≥5% of worker→driver gradient frames vanish
				RecvCorrupt: 0.06, // ≥1% arrive with flipped bytes (6% so the ~33-frame run sees several)
				RecvDup:     0.03,
				SendDelay:   0.05,
				DelayMin:    time.Millisecond,
				DelayMax:    4 * time.Millisecond,
			}
			// The outage worker "disconnects" mid-run: its link drops
			// everything for frame ordinals [12, 15) in each direction, then
			// heals. The window must stay well clear of maxStrikes (the driver
			// sees ~2x the window in consecutive misses) and of the final
			// rounds (so the end-of-run report gets through).
			chaosCfg.chaosOutage = map[int]cluster.OutageWindow{row.outage: {Start: 12, End: 15}}

			run := func() *Result {
				t.Helper()
				type outcome struct {
					res *Result
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					res, err := Run(chaosCfg, train, test)
					done <- outcome{res, err}
				}()
				select {
				case o := <-done:
					if o.err != nil {
						t.Fatalf("chaos run aborted: %v", o.err)
					}
					return o.res
				case <-time.After(2 * time.Minute):
					t.Fatal("chaos run deadlocked")
					return nil
				}
			}
			a := run()
			b := run()

			// Determinism: per-link fault schedules are seeded, so both runs
			// saw byte-identical faults, and every driver-side robustness
			// counter and the trained model must agree.
			for i := range a.Epochs {
				ea, eb := a.Epochs[i], b.Epochs[i]
				if ea.Timeouts != eb.Timeouts || ea.SkippedGrads != eb.SkippedGrads ||
					ea.CorruptFrames != eb.CorruptFrames || ea.StaleFrames != eb.StaleFrames ||
					ea.Strikes != eb.Strikes || ea.DegradedRounds != eb.DegradedRounds {
					t.Errorf("epoch %d robustness counters differ across same-seed runs:\n  %+v\n  %+v", i, ea, eb)
				}
			}
			if a.FinalLoss != b.FinalLoss {
				t.Errorf("same-seed chaos runs trained different models: loss %v vs %v", a.FinalLoss, b.FinalLoss)
			}
			if row.workerCounters && (a.WorkerTimeouts != b.WorkerTimeouts || a.WorkerCorruptFrames != b.WorkerCorruptFrames) {
				t.Errorf("worker-side counters differ across same-seed runs: timeouts %d/%d corrupt %d/%d",
					a.WorkerTimeouts, b.WorkerTimeouts, a.WorkerCorruptFrames, b.WorkerCorruptFrames)
			}

			// The machinery engaged: faults were injected and survived.
			c := soakTally(a)
			var merges int64
			for _, es := range a.Epochs {
				merges += es.Merges
			}
			if row.merges != (merges > 0) {
				t.Errorf("%d wire-to-wire merges recorded, want merging: %v", merges, row.merges)
			}
			if c.timeouts == 0 || c.degraded == 0 {
				t.Errorf("soak never degraded a round: %+v", c)
			}
			if c.skipped < row.minSkipped {
				t.Errorf("outage cost the driver %d gradients, want >= %d: %+v", c.skipped, row.minSkipped, c)
			}
			if row.driverSeesAll {
				if c.strikes == 0 {
					t.Errorf("no strikes accrued: %+v", c)
				}
				if c.corrupt == 0 {
					t.Errorf("no corrupt frames detected despite %v corruption rate", chaosCfg.chaos.RecvCorrupt)
				}
				if c.stale == 0 {
					t.Errorf("no stale frames detected despite duplication and drops: %+v", c)
				}
			} else if c.corrupt+int(a.WorkerCorruptFrames) == 0 {
				t.Errorf("no corrupt frames detected anywhere despite %v corruption rate", chaosCfg.chaos.RecvCorrupt)
			}
			if row.rejoins && (a.WorkerTimeouts == 0 || a.WorkerSkippedSteps == 0) {
				t.Errorf("outage never reached worker %d: timeouts=%d skipped=%d",
					row.outage, a.WorkerTimeouts, a.WorkerSkippedSteps)
			}
			if a.WorkerFailures != 0 {
				t.Errorf("%d workers died during the soak", a.WorkerFailures)
			}

			// Graceful degradation: the chaos run must still converge close
			// to the clean baseline of the same topology.
			if a.FinalLoss > clean.FinalLoss*1.10 {
				t.Errorf("chaos loss %v more than 10%% above clean loss %v", a.FinalLoss, clean.FinalLoss)
			}
			t.Logf("seed %d: clean loss %.4f, chaos loss %.4f, counters %+v, merges %d, worker timeouts %d, corrupt %d, skipped steps %d, lost reports %d",
				seed, clean.FinalLoss, a.FinalLoss, c, merges, a.WorkerTimeouts, a.WorkerCorruptFrames, a.WorkerSkippedSteps, a.LostReports)
		})
	}
}
