package experiments

import (
	"fmt"
	"strings"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/nn"
	"sketchml/internal/optim"
	"sketchml/internal/stats"
)

// Fig14 reproduces the Appendix B.3 neural-network experiment: an MLP on
// MNIST-like 20×20 images, trained with each codec compressing the dense
// gradients, reporting both short- and long-term convergence.
//
// The MLP's gradients are dense, so (as the paper notes) key compression is
// redundant here — the value path (quantile buckets + MinMaxSketch) is what
// gets exercised.
func Fig14(cfg Config) (*Report, error) {
	full := dataset.MNISTLike(cfg.Seed, cfg.scaled(1500), 20)
	train, test := full.Split(0.8, cfg.Seed)
	const workers = 4
	batch := 60 // the paper's batch size
	iters := cfg.scaled(400)
	evalEvery := iters / 10
	if evalEvery < 1 {
		evalEvery = 1
	}
	net := cluster.LabCluster()

	var b strings.Builder
	metrics := map[string]float64{}
	var series []stats.Series
	for _, c := range threeCodecs() {
		curve, finalLoss, acc, err := trainMLP(c, train, test, workers, batch, iters, evalEvery, net, cfg.Seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%-12s final loss %.4f, accuracy %.3f\n", c.Name(), finalLoss, acc)
		fmt.Fprintf(&b, "    curve:")
		s := stats.Series{Name: c.Name()}
		for _, pt := range curve {
			fmt.Fprintf(&b, " (%.2fs, %.3f)", pt.sec, pt.loss)
			s.X = append(s.X, pt.sec)
			s.Y = append(s.Y, pt.loss)
		}
		series = append(series, s)
		b.WriteString("\n")
		metrics[c.Name()+"_final_loss"] = finalLoss
		metrics[c.Name()+"_accuracy"] = acc
		if len(curve) > 0 {
			metrics[c.Name()+"_total_seconds"] = curve[len(curve)-1].sec
			metrics[c.Name()+"_total_net_seconds"] = curve[len(curve)-1].net
		}
	}
	b.WriteByte('\n')
	b.WriteString(stats.Plot(series, 64, 10))
	return &Report{Text: b.String(), Metrics: metrics}, nil
}

type mlpPoint struct {
	sec  float64 // cumulative simulated seconds: measured CPU plus modelled network
	net  float64 // the modelled network share of sec; a function of bytes alone
	loss float64
}

// trainMLP runs the distributed MLP loop in-process: each round, every
// (simulated) worker computes a dense gradient on its next batch, the
// gradient passes through the codec both ways, the aggregate is applied to
// the shared replica, and the round's traffic feeds the network cost model.
func trainMLP(c codec.Codec, train, test *dataset.Dataset, workers, batch, iters, evalEvery int,
	netModel cluster.NetworkModel, seed int64) ([]mlpPoint, float64, float64, error) {
	m, err := nn.New([]int{400, 64, 10}, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	opt := optim.NewAdam(0.01, m.ParamDim())
	shards := train.Shard(workers)
	batchers := make([]*dataset.Batcher, workers)
	for w := range batchers {
		batchers[w] = dataset.NewBatcher(shards[w], batch/workers+1, seed+int64(w))
	}
	acc := gradient.NewAccumulator(m.ParamDim())

	var curve []mlpPoint
	var simSeconds, netSec float64
	var buf []*dataset.Instance
	for it := 0; it < iters; it++ {
		var upBytes int64
		t0 := time.Now()
		var workerCompute time.Duration
		for w := 0; w < workers; w++ {
			cs := time.Now()
			buf = batchers[w].Next(buf)
			_, dense, err := m.LossAndGradient(buf)
			if err != nil {
				return nil, 0, 0, err
			}
			workerCompute += time.Since(cs)
			g := gradient.FromDense(dense, 0)
			msg, err := c.Encode(g)
			if err != nil {
				return nil, 0, 0, err
			}
			upBytes += int64(len(msg))
			dec, err := c.Decode(msg)
			if err != nil {
				return nil, 0, 0, err
			}
			if err := acc.Add(dec, 1.0/float64(workers)); err != nil {
				return nil, 0, 0, err
			}
		}
		agg := acc.Sum()
		msg, err := c.Encode(agg)
		if err != nil {
			return nil, 0, 0, err
		}
		dec, err := c.Decode(msg)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := opt.Step(m.Params(), dec); err != nil {
			return nil, 0, 0, err
		}
		wall := time.Since(t0)
		// Simulated time: worker compute parallelizes; codec work measured
		// within wall already — approximate serial remainder as wall minus
		// the parallelizable compute share.
		serial := wall - workerCompute + workerCompute/time.Duration(workers)
		comm := netModel.RoundTime(upBytes, int64(len(msg)), workers)
		simSeconds += serial.Seconds() + comm.Seconds()
		netSec += comm.Seconds()

		if (it+1)%evalEvery == 0 {
			loss, err := m.Loss(test)
			if err != nil {
				return nil, 0, 0, err
			}
			curve = append(curve, mlpPoint{sec: simSeconds, net: netSec, loss: loss})
		}
	}
	finalLoss, err := m.Loss(test)
	if err != nil {
		return nil, 0, 0, err
	}
	return curve, finalLoss, m.Accuracy(test), nil
}
