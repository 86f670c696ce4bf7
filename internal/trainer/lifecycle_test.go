package trainer

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"sketchml/internal/codec"
	"sketchml/internal/model"
)

// These tests pin the job-lifecycle contract the training service builds
// on: context cancellation is a hard stop that leaks nothing, a drain is a
// graceful stop that lands a checkpoint on a round boundary, and a resumed
// run walks the same trajectory as an uninterrupted one.

// waitNoGoroutineLeak polls until the process goroutine count returns to
// the baseline (workers and the context watcher need a few scheduler turns
// to observe their closed links and exit), then fails with a full stack
// dump if it never does.
func waitNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}

func lifecycleConfig() Config {
	return Config{
		Trainable:    model.Wrap(model.LogisticRegression{}),
		CodecFactory: shared(&codec.Raw{}),
		Optimizer:    adamFactory(0.1),
		Workers:      3,
		Epochs:       3,
		Lambda:       0.01,
		Seed:         9,
	}
}

// TestRunContextCancelStopsAndJoins cancels a run from inside its first
// epoch-boundary checkpoint callback. The run must stop at the next round,
// report the context error as the root cause, and leave no goroutine
// behind — the driver's watcher closes every link, so the three workers
// and the watcher itself all unwind.
func TestRunContextCancelStopsAndJoins(t *testing.T) {
	train, test := smallData(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := lifecycleConfig()
	cfg.CheckpointEvery = 1
	cfg.OnCheckpoint = func(*Checkpoint) error {
		cancel() // mid-run: epoch 0 is done, epoch 1 is about to start
		return nil
	}
	start := time.Now()
	res, err := RunContext(ctx, cfg, train, test)
	if err == nil {
		t.Fatalf("cancelled run returned no error (res=%+v)", res)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if res != nil {
		t.Fatalf("cancelled run returned a result: %+v", res)
	}
	// No RoundDeadline is configured, so the stop bound is the round in
	// flight plus scheduling noise; seconds would mean the cancel leaked
	// into a full run.
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("cancelled run took %v", d)
	}
	waitNoGoroutineLeak(t, baseline)
}

// TestRunContextJoinsWatcherOnCompletion runs to completion under a live
// context that is never cancelled while the run is in flight. The driver's
// context watcher must exit with the run, not with the context: once
// RunContext returns, the goroutine count is back at baseline before
// cancel is called.
func TestRunContextJoinsWatcherOnCompletion(t *testing.T) {
	train, test := smallData(t)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := RunContext(ctx, lifecycleConfig(), train, test); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutineLeak(t, baseline)
}

// TestDrainCheckpointsOnRoundBoundary requests a drain before the run
// starts: the run must complete exactly one round (the one in flight when
// the request lands), checkpoint at that boundary, collect every worker's
// report through the stop-frame protocol, and exit cleanly.
func TestDrainCheckpointsOnRoundBoundary(t *testing.T) {
	train, test := smallData(t)
	baseline := runtime.NumGoroutine()

	drain := make(chan struct{})
	close(drain)
	var n int
	var cp *Checkpoint
	cfg := lifecycleConfig()
	cfg.Drain = drain
	// The last checkpoint stays valid after the run: nothing runs after it.
	cfg.OnCheckpoint = func(c *Checkpoint) error { n, cp = n+1, c; return nil }

	res, err := Run(cfg, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Drained {
		t.Fatal("run did not report Drained")
	}
	if res.CompletedRounds != 1 {
		t.Fatalf("drained run completed %d rounds, want exactly the round in flight (1)", res.CompletedRounds)
	}
	if n != 1 {
		t.Fatalf("%d checkpoints, want 1", n)
	}
	if cp.Rounds != res.CompletedRounds {
		t.Fatalf("checkpoint at round %d, run stopped at %d", cp.Rounds, res.CompletedRounds)
	}
	// The stop frame reaches every worker, so no report may be lost even
	// though the run stopped mid-epoch.
	if res.LostReports != 0 || res.WorkerFailures != 0 {
		t.Fatalf("drain lost %d reports, %d worker failures", res.LostReports, res.WorkerFailures)
	}
	// The checkpoint must survive the wire format round trip bit-exactly.
	back, err := UnmarshalCheckpoint(cp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Rounds != cp.Rounds || back.Seed != cp.Seed || len(back.Theta) != len(cp.Theta) {
		t.Fatalf("checkpoint did not round-trip: %+v vs %+v", back, cp)
	}
	for i := range cp.Theta {
		if back.Theta[i] != cp.Theta[i] {
			t.Fatalf("theta[%d] differs after round trip", i)
		}
	}
	waitNoGoroutineLeak(t, baseline)
}

// TestResumeMatchesUninterruptedRun is the acceptance bar for crash-safe
// checkpoints: drain a run mid-epoch, resume from the checkpoint, and the
// final loss must land within 1% of the same-seed uninterrupted run. (The
// driver topology resumes at round granularity with a deterministic
// batcher fast-forward, so in practice the match is bit-exact; the 1%
// bound is the contract.)
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	train, test := smallData(t)

	full, err := Run(lifecycleConfig(), train, test)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the first epoch-boundary checkpoint arms the drain,
	// so the run stops one round into epoch 1 — a mid-epoch boundary.
	drain := make(chan struct{})
	var cp *Checkpoint // the last, the drain's: nothing runs after it
	cfg := lifecycleConfig()
	cfg.Drain = drain
	cfg.CheckpointEvery = 1
	cfg.OnCheckpoint = func(c *Checkpoint) error {
		if cp == nil {
			close(drain)
		}
		cp = c
		return nil
	}
	part, err := Run(cfg, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Drained {
		t.Fatal("interrupted run did not drain")
	}
	if cp.Rounds != part.CompletedRounds {
		t.Fatalf("final checkpoint at round %d, drain stopped at %d", cp.Rounds, part.CompletedRounds)
	}
	if cp.Rounds%cp.RoundsPerEpoch == 0 {
		t.Fatalf("drain checkpoint landed on an epoch boundary (round %d, rpe %d); the test wants a mid-epoch resume", cp.Rounds, cp.RoundsPerEpoch)
	}

	// Resume through the serialized form — what the service store round-trips.
	restored, err := UnmarshalCheckpoint(cp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := lifecycleConfig()
	cfg2.Resume = restored
	resumed, err := Run(cfg2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CompletedRounds != full.CompletedRounds {
		t.Fatalf("resumed run completed %d rounds, uninterrupted %d", resumed.CompletedRounds, full.CompletedRounds)
	}
	rel := math.Abs(resumed.FinalLoss-full.FinalLoss) / math.Abs(full.FinalLoss)
	if rel > 0.01 {
		t.Fatalf("resumed final loss %v vs uninterrupted %v (%.2f%% apart, budget 1%%)",
			resumed.FinalLoss, full.FinalLoss, rel*100)
	}
}

// TestResumeValidation pins the mismatch errors: a checkpoint from a
// different shape of run must be rejected up front, not silently applied.
func TestResumeValidation(t *testing.T) {
	train, test := smallData(t)
	drain := make(chan struct{})
	close(drain)
	var cp *Checkpoint
	cfg := lifecycleConfig()
	cfg.Drain = drain
	cfg.OnCheckpoint = func(c *Checkpoint) error { cp = c; return nil }
	if _, err := Run(cfg, train, test); err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint captured")
	}

	cases := []struct {
		name   string
		mutate func(*Checkpoint)
		tweak  func(*Config)
	}{
		{name: "workers changed", tweak: func(c *Config) { c.Workers = 2 }},
		{name: "codec changed", tweak: func(c *Config) { c.CodecFactory = shared(&codec.ZipML{Bits: 16}) }},
		{name: "seed changed", tweak: func(c *Config) { c.Seed = 1234 }},
		{name: "rounds beyond run", mutate: func(c *Checkpoint) { c.Rounds = 1 << 30 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := *cp
			if tc.mutate != nil {
				tc.mutate(&c)
			}
			cfg := lifecycleConfig()
			cfg.Resume = &c
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			if _, err := Run(cfg, train, test); err == nil {
				t.Fatal("mismatched resume was accepted")
			}
		})
	}
}

// TestResumeOfCompleteRun resumes from a checkpoint taken at the very end
// of a run: zero rounds execute, no epochs are recorded, and the final
// loss is evaluated directly from the restored parameters.
func TestResumeOfCompleteRun(t *testing.T) {
	train, test := smallData(t)
	var last *Checkpoint
	cfg := lifecycleConfig()
	cfg.CheckpointEvery = 1
	cfg.OnCheckpoint = func(cp *Checkpoint) error { last = cp; return nil }
	full, err := Run(cfg, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Rounds != full.CompletedRounds {
		t.Fatalf("expected a final-round checkpoint, got %+v", last)
	}

	cfg2 := lifecycleConfig()
	cfg2.Resume = last
	res, err := Run(cfg2, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 0 {
		t.Fatalf("complete-run resume recorded %d epochs, want 0", len(res.Epochs))
	}
	if math.Abs(res.FinalLoss-full.FinalLoss)/math.Abs(full.FinalLoss) > 1e-9 {
		t.Fatalf("final loss drifted: %v vs %v", res.FinalLoss, full.FinalLoss)
	}
}
