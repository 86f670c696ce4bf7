package experiments

import (
	"fmt"
	"strings"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/nn"
	"sketchml/internal/stats"
	"sketchml/internal/trainer"
)

// Fig14 reproduces the Appendix B.3 neural-network experiment: an MLP on
// MNIST-like 20×20 images, trained by four workers through the same run loop
// as every other figure with each codec compressing the dense gradients,
// reporting both short- and long-term convergence (the loss after every
// epoch against cumulative simulated time).
//
// The MLP's gradients are dense, so (as the paper notes) key compression is
// redundant here — the value path (quantile buckets + MinMaxSketch) is what
// gets exercised.
func Fig14(cfg Config) (*Report, error) {
	full := dataset.MNISTLike(cfg.Seed, cfg.scaled(1500), 20)
	mlp, err := nn.New([]int{400, 64, 10}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if err := mlp.CheckDataset(full); err != nil {
		return nil, err
	}
	train, test := full.Split(0.8, cfg.Seed)
	// The paper's batch size as the fraction the trainer takes (the half keeps
	// the product from truncating to 59). Data and iteration budget scale
	// together: 20 epochs at any scale, 400 rounds at scale 1.
	const batch, epochs = 60, 20
	batchFrac := min((batch+0.5)/float64(train.N()), 1)
	net := cluster.LabCluster()

	var b strings.Builder
	metrics := map[string]float64{}
	var series []stats.Series
	for _, c := range threeCodecs() {
		res, err := trainer.Run(trainer.Config{
			Trainable:     mlp,
			CodecFactory:  func() codec.Codec { return c },
			Optimizer:     adam(0.01),
			Workers:       4,
			BatchFraction: batchFrac,
			Epochs:        epochs,
			Seed:          cfg.Seed,
		}, train, test)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name(), err)
		}
		sim, network := price(res, net, 1)
		s := lossCurve(c.Name(), res, sim)
		fmt.Fprintf(&b, "%-12s final loss %.4f, accuracy %.3f\n", s.Name, res.FinalLoss, res.FinalAccuracy)
		fmt.Fprintf(&b, "    curve:")
		for i := range s.X {
			fmt.Fprintf(&b, " (%.2fs, %.3f)", s.X[i], s.Y[i])
		}
		series = append(series, s)
		b.WriteString("\n")
		metrics[s.Name+"_final_loss"] = res.FinalLoss
		metrics[s.Name+"_accuracy"] = res.FinalAccuracy
		metrics[s.Name+"_total_seconds"] = s.X[len(s.X)-1]
		metrics[s.Name+"_total_net_seconds"] = total(network).Seconds()
	}
	b.WriteByte('\n')
	b.WriteString(stats.Plot(series, 64, 10))
	return &Report{Text: b.String(), Metrics: metrics}, nil
}
