package trainer

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
)

// RunPS executes training on a sharded parameter-server topology — the
// alternative the paper's related work discusses ([19], [22]) and the
// natural extension of its single-driver design. The key space [0, Dim) is
// partitioned into `servers` contiguous ranges; each round every worker
// splits its gradient by range, sends each shard (codec-compressed) to the
// owning server, and every server aggregates and broadcasts its shard
// back. The single driver link of the Spark topology — the bottleneck that
// makes uncompressed Adam stop scaling in Figure 11 — is thus divided
// across `servers` parallel links.
//
// The message flow is simulated deterministically in-process: every shard
// still passes through the codec both ways, and the epoch-time model
// parallelizes server links (communication time is the per-round maximum
// over servers).
func RunPS(cfg Config, servers int, train, test *dataset.Dataset) (*Result, error) {
	return RunPSContext(context.Background(), cfg, servers, train, test)
}

// RunPSContext is RunPS bounded by a context: cancellation is checked every
// round (the simulation is serial, so one round is the response latency) and
// the returned error wraps ctx.Err(). Config.Drain and Config.OnCheckpoint
// operate at epoch granularity — the PS simulation has no mid-epoch round
// boundary that all parties share — and Config.Resume restarts from an
// epoch-boundary checkpoint.
func RunPSContext(ctx context.Context, cfg Config, servers int, train, test *dataset.Dataset) (res *Result, err error) {
	ctx = orBackground(ctx)
	defer rootCause(ctx, &res, &err)
	plan, startEpoch, err := planEpochRun(&cfg, train, "PS")
	if err != nil {
		return nil, err
	}
	roundsPerEpoch, pDim := plan.roundsPerEpoch, plan.pDim
	if servers < 1 {
		servers = 1
	}

	// Key-range boundaries: server s owns [bounds[s], bounds[s+1]).
	// Boundaries are load-balanced against the observed feature frequency
	// (Zipf data concentrates keys at low indexes, so uniform ranges would
	// leave one hot server owning nearly all traffic — the classic
	// parameter-server hot-shard problem). Contiguous ranges keep the
	// delta-binary key encoding effective within each shard.
	bounds := balancedBounds(train, servers)
	if pDim != train.Dim {
		// Non-GLM parameter layouts: fall back to uniform ranges over the
		// parameter space.
		bounds = uniformBounds(pDim, servers)
	}

	workerCodecs := make([]codec.Codec, cfg.Workers)
	batchers := make([]*dataset.Batcher, cfg.Workers)
	for w := range workerCodecs {
		workerCodecs[w] = cfg.partyCodec()
		batchers[w] = plan.batcher(&cfg, w)
	}
	serverCodecs := make([]codec.Codec, servers)
	accs := make([]*gradient.Accumulator, servers)
	for s := range serverCodecs {
		serverCodecs[s] = cfg.partyCodec()
		accs[s] = gradient.NewAccumulator(pDim)
	}
	merged := gradient.NewAccumulator(pDim) // sums the servers' shards; Sum resets it every round
	theta, opt, err := newReplica(&cfg, pDim)
	if err != nil {
		return nil, err
	}

	res = newResult(&cfg)
	res.CompletedRounds = plan.startRound
	var cumSimSeconds float64
	var buf []*dataset.Instance

	stopRequested := false
	for epoch := startEpoch; epoch < cfg.Epochs && !stopRequested; epoch++ {
		var es EpochStats
		es.Epoch = epoch
		es.Rounds = roundsPerEpoch
		epochStart := time.Now()
		var workerCompute, workerCodecTime time.Duration
		serverCodecTime := make([]time.Duration, servers)
		upByServer := make([]int64, servers)
		downByServer := make([]int64, servers)
		var lossSum float64

		for round := 0; round < roundsPerEpoch; round++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Workers: compute, split, encode, "send".
			for w := 0; w < cfg.Workers; w++ {
				t0 := time.Now()
				buf = batchers[w].Next(buf)
				g, loss := cfg.Trainable.BatchGradient(theta, buf, cfg.Lambda)
				workerCompute += time.Since(t0)
				lossSum += loss

				parts := splitByRange(g, bounds)
				for s, part := range parts {
					t0 = time.Now()
					msg, err := workerCodecs[w].Encode(part)
					workerCodecTime += time.Since(t0)
					if err != nil {
						return nil, fmt.Errorf("trainer: worker %d shard %d encode: %w", w, s, err)
					}
					upByServer[s] += int64(len(msg))
					t0 = time.Now()
					dec, err := serverCodecs[s].Decode(msg)
					serverCodecTime[s] += time.Since(t0)
					if err != nil {
						return nil, fmt.Errorf("trainer: server %d decode: %w", s, err)
					}
					if err := accs[s].Add(dec, 1.0/float64(cfg.Workers)); err != nil {
						return nil, err
					}
				}
			}
			// Servers: aggregate, encode, broadcast; every replica applies
			// the merged update.
			for s := 0; s < servers; s++ {
				agg := accs[s].Sum()
				t0 := time.Now()
				msg, err := serverCodecs[s].Encode(agg)
				serverCodecTime[s] += time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("trainer: server %d encode: %w", s, err)
				}
				downByServer[s] += int64(len(msg))
				t0 = time.Now()
				dec, err := workerCodecs[0].Decode(msg)
				workerCodecTime += time.Since(t0)
				if err != nil {
					return nil, err
				}
				if err := merged.Add(dec, 1); err != nil {
					return nil, err
				}
			}
			if err := opt.Step(theta, merged.Sum()); err != nil {
				return nil, err
			}
		}

		for s := 0; s < servers; s++ {
			es.UpBytes += upByServer[s]
			es.DownBytes += downByServer[s]
		}
		es.WallTime = time.Since(epochStart)
		es.ComputeTime = workerCompute
		es.EncodeTime = workerCodecTime
		var maxServerCodec time.Duration
		for _, d := range serverCodecTime {
			es.DecodeTime += d
			if d > maxServerCodec {
				maxServerCodec = d
			}
		}
		es.TrainLoss = lossSum / float64(roundsPerEpoch*cfg.Workers)

		// Simulated epoch time: compute and worker codec parallelize over
		// workers; server codec parallelizes over servers (take the max);
		// network links are parallel per server (take the slowest).
		scaledCompute := time.Duration(float64(workerCompute) * cfg.ComputeScale)
		workerSide := (scaledCompute + workerCodecTime) / time.Duration(cfg.Workers)
		var network time.Duration
		for s := 0; s < servers; s++ {
			t := cfg.Network.RoundTime(
				upByServer[s]/int64(roundsPerEpoch),
				downByServer[s]/int64(roundsPerEpoch),
				cfg.Workers) * time.Duration(roundsPerEpoch)
			if t > network {
				network = t
			}
		}
		es.SimTime = workerSide + maxServerCodec + network

		es.TestLoss, es.Accuracy = cfg.Trainable.Evaluate(theta, test)
		cumSimSeconds += es.SimTime.Seconds()
		res.Epochs = append(res.Epochs, es)
		res.Curve = append(res.Curve, CurvePoint{Seconds: cumSimSeconds, Loss: es.TestLoss})

		if stopRequested, err = plan.endEpoch(&cfg, res, epoch+1, theta, opt); err != nil {
			return nil, err
		}
	}
	res.finish(&cfg, theta, test)
	return res, nil
}

// balancedBounds derives servers+1 range boundaries over [0, dim] such
// that each range carries roughly equal feature-occurrence load in the
// training data. Deterministic given the dataset, so every party derives
// identical shards.
func balancedBounds(train *dataset.Dataset, servers int) []uint64 {
	// Balance on expected per-round activity, not raw occurrences: message
	// bytes scale with the number of DISTINCT keys a shard contributes per
	// round, and a key's chance of appearing in a mini-batch saturates once
	// it is common (under Zipf data an occurrence balance would give one
	// server a handful of hot keys and another the whole distinct tail).
	// Weight each feature by 1 - exp(-count/10), its approximate presence
	// probability in a 10% batch, scaled to integers for exact arithmetic.
	occ := make([]int64, train.Dim)
	for i := range train.Instances {
		for _, k := range train.Instances[i].Keys {
			occ[k]++
		}
	}
	counts := make([]int64, train.Dim)
	var total int64
	for k, c := range occ {
		if c == 0 {
			continue
		}
		w := int64(1e6 * (1 - math.Exp(-float64(c)/10)))
		if w < 1 {
			w = 1
		}
		counts[k] = w
		total += w
	}
	if total == 0 {
		return uniformBounds(train.Dim, servers)
	}
	bounds := make([]uint64, servers+1)
	bounds[servers] = train.Dim
	var cum int64
	next := 1
	for k, c := range counts {
		cum += c
		for next < servers && cum >= int64(float64(next)/float64(servers)*float64(total)) {
			bounds[next] = uint64(k + 1)
			next++
		}
	}
	for ; next < servers; next++ {
		bounds[next] = train.Dim
	}
	return bounds
}

// uniformBounds splits [0, dim] into parts equal ranges, returned as parts+1
// boundaries. Every party derives the same bounds from dim alone, so no
// coordination round is needed (ring chunks, PS shards without a key
// histogram).
func uniformBounds(dim uint64, parts int) []uint64 {
	bounds := make([]uint64, parts+1)
	for i := 1; i < parts; i++ {
		bounds[i] = uint64(float64(i) / float64(parts) * float64(dim))
	}
	bounds[parts] = dim
	return bounds
}

// splitByRange partitions a sorted sparse gradient into len(bounds)-1
// sub-gradients, where part s holds keys in [bounds[s], bounds[s+1]).
// Every part keeps the full Dim so decoded shards merge cleanly.
func splitByRange(g *gradient.Sparse, bounds []uint64) []*gradient.Sparse {
	servers := len(bounds) - 1
	parts := make([]*gradient.Sparse, servers)
	for s := 0; s < servers; s++ {
		lo := sort.Search(len(g.Keys), func(i int) bool { return g.Keys[i] >= bounds[s] })
		hi := sort.Search(len(g.Keys), func(i int) bool { return g.Keys[i] >= bounds[s+1] })
		parts[s] = &gradient.Sparse{
			Dim:    g.Dim,
			Keys:   g.Keys[lo:hi],
			Values: g.Values[lo:hi],
		}
	}
	return parts
}
