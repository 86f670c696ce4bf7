package trainer

import (
	"strings"
	"testing"
	"time"

	"sketchml/internal/gradient"
)

// Quorum boundary tests: tolerant-mode gatherRound must accept a round
// with exactly ceil(minGatherFraction·W) arrivals and reject one with a
// single arrival fewer — the boundary itself, not just the far ends. A
// worker whose link is closed errors out immediately, which tolerant mode
// counts as a miss, so these rounds need no deadline waiting.

func tolerantGather(t *testing.T, workers, alive int, frac float64) (error, *EpochStats) {
	t.Helper()
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	cfg.RoundDeadline = 200 * time.Millisecond
	cfg.minGatherFraction = frac
	cfg.maxStrikes = 1 << 30 // strikes out of the picture: this is a quorum test
	for w := 0; w < workers; w++ {
		if w < alive {
			if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := workerSide[w].Close(); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	var decode time.Duration
	es := &EpochStats{}
	err := gatherRound(cfg, 0, driverSide, make([]int, workers), make([]gradient.Sparse, workers), nil, acc, es, &decode)
	return err, es
}

func TestGatherQuorumExactBoundary(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		frac    float64
		quorum  int // = ceil(frac·workers), spelled out for the reader
	}{
		{name: "integral f*W", workers: 4, frac: 0.5, quorum: 2},
		{name: "fractional f*W rounds up", workers: 5, frac: 0.5, quorum: 3},
		{name: "full quorum", workers: 3, frac: 1.0, quorum: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Exactly at the quorum: the round must succeed, degraded.
			err, es := tolerantGather(t, tc.workers, tc.quorum, tc.frac)
			if err != nil {
				t.Fatalf("round with exactly %d/%d arrivals (quorum) failed: %v", tc.quorum, tc.workers, err)
			}
			if missed := tc.workers - tc.quorum; int(es.SkippedGrads) != missed {
				t.Fatalf("SkippedGrads = %d, want %d", es.SkippedGrads, missed)
			}
			if tc.quorum < tc.workers && es.DegradedRounds != 1 {
				t.Fatalf("DegradedRounds = %d, want 1", es.DegradedRounds)
			}

			// One below the quorum: the round must abort with a quorum error.
			err, _ = tolerantGather(t, tc.workers, tc.quorum-1, tc.frac)
			if err == nil {
				t.Fatalf("round with %d/%d arrivals (one below quorum) succeeded", tc.quorum-1, tc.workers)
			}
			if !strings.Contains(err.Error(), "quorum lost") {
				t.Fatalf("expected a quorum-lost error, got: %v", err)
			}
		})
	}
}

// TestMaxStrikesResetOnArrival drives the same strike ledger across
// consecutive rounds: a worker that misses maxStrikes-1 rounds, shows up
// once, then misses again must NOT abort the run — only consecutive misses
// count, and one arrival resets the counter.
func TestMaxStrikesResetOnArrival(t *testing.T) {
	const workers = 2
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	cfg.RoundDeadline = 100 * time.Millisecond
	cfg.minGatherFraction = 0.5 // quorum 1: worker 0 alone keeps rounds alive
	cfg.maxStrikes = 2

	strikes := make([]int, workers)
	reuse := make([]gradient.Sparse, workers)
	acc := gradient.NewAccumulator(gatherDim)
	var decode time.Duration

	// send delivers worker w's gradient for the round; a worker that stays
	// silent simply times out on the driver side.
	send := func(w, round int) {
		t.Helper()
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, round, msg)); err != nil {
			t.Fatal(err)
		}
	}
	round := 0
	runRound := func(worker1Sends bool) error {
		t.Helper()
		send(0, round)
		if worker1Sends {
			send(1, round)
		}
		err := gatherRound(cfg, round, driverSide, strikes, reuse, nil, acc, &EpochStats{}, &decode)
		round++
		return err
	}

	if err := runRound(false); err != nil { // miss #1: strikes[1] = 1
		t.Fatalf("round 0: %v", err)
	}
	if strikes[1] != 1 {
		t.Fatalf("after one miss, strikes[1] = %d, want 1", strikes[1])
	}
	if err := runRound(true); err != nil { // arrival: strikes[1] resets
		t.Fatalf("round 1: %v", err)
	}
	if strikes[1] != 0 {
		t.Fatalf("arrival did not reset strikes: strikes[1] = %d", strikes[1])
	}
	if err := runRound(false); err != nil { // miss again: 1, not 2 — no abort
		t.Fatalf("round 2 aborted despite the reset: %v", err)
	}
	if err := runRound(false); err == nil { // second consecutive miss: abort
		t.Fatal("worker at maxStrikes consecutive misses did not abort")
	} else if !strings.Contains(err.Error(), "missed 2 consecutive rounds") {
		t.Fatalf("unexpected strike error: %v", err)
	}
}
