package experiments

import (
	"fmt"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/model"
	"sketchml/internal/stats"
	"sketchml/internal/trainer"
)

// AblationLossyBaselines contrasts SketchML against the related-work lossy
// compressors the paper discusses but does not run: 1-bit SGD (threshold
// truncation, [39]) and Top-K sparsification, each with and without
// error-feedback residual compensation.
//
// Two honest findings beyond the paper: (1) with Adam as the optimizer,
// sign-only (1-bit) and Top-K gradients are far more competitive on linear
// models than the paper's related-work discussion suggests — Adam's
// per-dimension normalization already discards most magnitude information;
// (2) naive mean-scale 1-bit is UNSTABLE under error feedback (the residual
// inflates the scale each round), which is why the literature pairs 1-bit
// with per-column scales.
func AblationLossyBaselines(cfg Config) (*Report, error) {
	train, test := dataset.KDD12Like(cfg.Seed).Split(0.75, cfg.Seed)
	epochs := cfg.scaled(6)
	net := cluster.ProductionCluster()

	type entry struct {
		name    string
		factory func() codec.Codec
	}
	entries := []entry{
		{"Adam", func() codec.Codec { return &codec.Raw{} }},
		{"SketchML", func() codec.Codec { return codec.MustSketchML(codec.DefaultOptions()) }},
		{"OneBit", func() codec.Codec { return &codec.OneBit{} }},
		{"OneBit+EF", func() codec.Codec { return codec.NewErrorFeedback(&codec.OneBit{}) }},
		{"TopK-0.1", func() codec.Codec { return &codec.TopK{Fraction: 0.1} }},
		{"TopK-0.1+EF", func() codec.Codec { return codec.NewErrorFeedback(&codec.TopK{Fraction: 0.1}) }},
	}
	table := stats.NewTable("codec", "final loss", "msg KB/round", "sim s/epoch")
	metrics := map[string]float64{}
	for _, e := range entries {
		res, err := trainer.Run(trainer.Config{
			Trainable:     model.Wrap(model.LogisticRegression{}),
			CodecFactory:  e.factory,
			Optimizer:     adam(0.1),
			Workers:       10,
			BatchFraction: 0.1,
			Epochs:        epochs,
			Lambda:        0.01,
			Seed:          cfg.Seed,
		}, train, test)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		sim, _ := price(res, net, 1)
		table.AddRow(e.name, res.FinalLoss, res.AvgUpBytesPerRound()/1024, meanSeconds(sim))
		metrics[e.name+"_loss"] = res.FinalLoss
		metrics[e.name+"_bytes"] = res.AvgUpBytesPerRound()
		metrics[e.name+"_seconds"] = meanSeconds(sim)
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}
