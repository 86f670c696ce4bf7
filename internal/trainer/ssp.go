package trainer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
)

// RunSSP executes training under the Stale Synchronous Parallel protocol of
// Ho et al. — the paper's citation [19], whose batch-size guidance the
// evaluation follows. Workers proceed asynchronously: worker w may run
// iteration i only while i − min_progress ≤ staleness, so fast workers are
// not blocked by stragglers until the gap reaches the bound. staleness 0
// degenerates to the bulk-synchronous protocol.
//
// The run is an event-driven virtual-time simulation: every worker's
// iteration costs a deterministic per-feature-entry compute estimate scaled
// by its speed factor plus the modeled network time for its
// (codec-compressed) messages.
// Gradients are computed against the parameters current at iteration start
// and applied at completion — exactly the staleness effect SSP permits.
//
// speeds[w] multiplies worker w's compute time (1.0 = nominal; 5.0 = a 5×
// straggler). nil means uniform speeds.
func RunSSP(cfg Config, staleness int, speeds []float64, train, test *dataset.Dataset) (*Result, error) {
	return RunSSPContext(context.Background(), cfg, staleness, speeds, train, test)
}

// RunSSPContext is RunSSP bounded by a context: cancellation is checked at
// every virtual-time completion event and the returned error wraps
// ctx.Err(). Config.Drain and Config.OnCheckpoint operate at epoch
// granularity. Config.Resume aligns every worker at the checkpointed epoch
// boundary and restarts the virtual clock — exact for staleness 0 (the
// bulk-synchronous degenerate case); for staleness > 0 the resumed run is a
// valid SSP execution from the checkpointed parameters but not a replay of
// the interrupted run's event interleaving.
func RunSSPContext(ctx context.Context, cfg Config, staleness int, speeds []float64, train, test *dataset.Dataset) (res *Result, err error) {
	ctx = orBackground(ctx)
	defer rootCause(ctx, &res, &err)
	plan, startEpoch, err := planEpochRun(&cfg, train, "SSP")
	if err != nil {
		return nil, err
	}
	roundsPerEpoch, totalIters, startRounds := plan.roundsPerEpoch, plan.totalRounds, plan.startRound
	if staleness < 0 {
		staleness = 0
	}
	if speeds == nil {
		speeds = make([]float64, cfg.Workers)
		for w := range speeds {
			speeds[w] = 1
		}
	}
	if len(speeds) != cfg.Workers {
		return nil, fmt.Errorf("trainer: %d speed factors for %d workers", len(speeds), cfg.Workers)
	}
	for w, s := range speeds {
		if s <= 0 {
			return nil, fmt.Errorf("trainer: worker %d speed %v must be positive", w, s)
		}
	}

	// Resume aligns every worker at the checkpointed epoch boundary (see the
	// function comment for the staleness caveat).
	codecs := make([]codec.Codec, cfg.Workers)
	batchers := make([]*dataset.Batcher, cfg.Workers)
	for w := range codecs {
		codecs[w] = cfg.partyCodec()
		batchers[w] = plan.batcher(&cfg, w)
	}
	theta, opt, err := newReplica(&cfg, plan.pDim)
	if err != nil {
		return nil, err
	}

	res = newResult(&cfg)
	res.CompletedRounds = startRounds
	if startRounds >= totalIters {
		// Resume of an already complete run: nothing to execute.
		res.finish(&cfg, theta, test)
		return res, nil
	}
	var buf []*dataset.Instance

	// Event state: for each worker, iterations completed, and the virtual
	// finish time of its in-flight iteration (inf when idle/blocked).
	completed := make([]int, cfg.Workers)
	finishAt := make([]float64, cfg.Workers)
	inflight := make([]*pendingUpdate, cfg.Workers)
	for w := range finishAt {
		completed[w] = startRounds
		finishAt[w] = math.Inf(1)
	}
	var now float64
	var upBytes, downBytes int64
	var lossSum float64
	iterations := startRounds * cfg.Workers
	startIters := iterations

	minCompleted := func() int {
		m := totalIters
		for _, c := range completed {
			if c < m {
				m = c
			}
		}
		return m
	}

	// start launches worker w's next iteration at virtual time t.
	// Compute cost uses a deterministic per-feature-entry proxy rather than
	// wall timing: at microsecond granularity a single GC pause inside the
	// measured window, amplified by ComputeScale, would dominate the
	// virtual clock and drown the speed factors.
	const secPerEntry = 1e-7
	start := func(w int, t float64) error {
		buf = batchers[w].Next(buf)
		entries := 0
		for _, in := range buf {
			entries += in.NNZ()
		}
		g, loss := cfg.Trainable.BatchGradient(theta, buf, cfg.Lambda)
		compute := secPerEntry * float64(entries) * cfg.ComputeScale * speeds[w]
		lossSum += loss

		msg, err := codecs[w].Encode(g)
		if err != nil {
			return fmt.Errorf("trainer: ssp worker %d encode: %w", w, err)
		}
		dec, err := codecs[w].Decode(msg)
		if err != nil {
			return fmt.Errorf("trainer: ssp worker %d decode: %w", w, err)
		}
		upBytes += int64(len(msg))
		downBytes += int64(len(msg)) // the applied update flows back out
		comm := cfg.Network.RoundTime(int64(len(msg)), int64(len(msg)), 1).Seconds()
		inflight[w] = &pendingUpdate{grad: dec}
		finishAt[w] = t + compute + comm
		return nil
	}

	// Launch every worker's first iteration.
	for w := 0; w < cfg.Workers; w++ {
		if err := start(w, 0); err != nil {
			return nil, err
		}
	}

	epochMark := roundsPerEpoch * cfg.Workers // global iterations per epoch
	nextEpochAt := (startEpoch + 1) * epochMark
	var lastEpochTime float64
	epoch := startEpoch
	wall := time.Now()
	stopRequested := false

	for iterations < totalIters*cfg.Workers && !stopRequested {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Next completion event.
		w := -1
		best := math.Inf(1)
		for i, f := range finishAt {
			if f < best {
				best, w = f, i
			}
		}
		if w < 0 {
			return nil, errors.New("trainer: ssp deadlock (no in-flight work)")
		}
		now = best
		finishAt[w] = math.Inf(1)
		if err := opt.Step(theta, inflight[w].grad); err != nil {
			return nil, err
		}
		inflight[w] = nil
		completed[w]++
		iterations++

		// Restart this worker and any worker unblocked by the new minimum.
		minC := minCompleted()
		for v := 0; v < cfg.Workers; v++ {
			if inflight[v] != nil || completed[v] >= totalIters {
				continue
			}
			if completed[v]-minC <= staleness {
				if err := start(v, now); err != nil {
					return nil, err
				}
			}
		}

		if iterations >= nextEpochAt {
			var es EpochStats
			es.Epoch = epoch
			es.Rounds = roundsPerEpoch
			es.UpBytes = upBytes
			es.DownBytes = downBytes
			upBytes, downBytes = 0, 0
			es.SimTime = time.Duration((now - lastEpochTime) * float64(time.Second))
			lastEpochTime = now
			es.WallTime = time.Since(wall)
			wall = time.Now()
			es.TrainLoss = lossSum / float64(iterations-startIters)
			es.TestLoss, es.Accuracy = cfg.Trainable.Evaluate(theta, test)
			res.Epochs = append(res.Epochs, es)
			res.Curve = append(res.Curve, CurvePoint{Seconds: now, Loss: es.TestLoss})
			epoch++
			nextEpochAt += epochMark

			if stopRequested, err = plan.endEpoch(&cfg, res, epoch, theta, opt); err != nil {
				return nil, err
			}
		}
	}
	if len(res.Epochs) == 0 {
		return nil, errors.New("trainer: ssp produced no epochs")
	}
	res.finish(&cfg, theta, test)
	return res, nil
}

// pendingUpdate is a decoded gradient awaiting application at its virtual
// completion time.
type pendingUpdate struct {
	grad *gradient.Sparse
}
