package experiments

import (
	"fmt"
	"math"
	"strings"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
	"sketchml/internal/stats"
)

// firstGradient computes the first mini-batch LR gradient on a dataset with
// an untrained model — exactly how the paper produced Figure 4.
func firstGradient(d *dataset.Dataset, batchFrac float64) *gradient.Sparse {
	n := int(batchFrac * float64(d.N()))
	if n < 1 {
		n = 1
	}
	batch := make([]*dataset.Instance, 0, n)
	for i := 0; i < n && i < d.N(); i++ {
		batch = append(batch, &d.Instances[i])
	}
	theta := make([]float64, d.Dim)
	g, _ := model.BatchGradient(model.LogisticRegression{}, theta, batch, 0.01)
	return g
}

// Fig4 reproduces the gradient-value histogram: values concentrate near
// zero and are far from uniform over their range.
func Fig4(cfg Config) (*Report, error) {
	d := dataset.KDD10Like(cfg.Seed)
	g := firstGradient(d, 0.1)
	if g.NNZ() == 0 {
		return nil, fmt.Errorf("fig4: empty gradient")
	}
	maxAbs := g.MaxAbs()
	h := stats.NewHistogram(-maxAbs, maxAbs, 21)
	h.AddAll(g.Values)

	// Concentration metric: fraction of values within 10% of zero relative
	// to the extreme value.
	near := 0
	for _, v := range g.Values {
		if math.Abs(v) < 0.1*maxAbs {
			near++
		}
	}
	frac := float64(near) / float64(g.NNZ())

	var b strings.Builder
	fmt.Fprintf(&b, "first LR gradient on KDD10-like data: d=%d nonzeros over D=%d dims\n",
		g.NNZ(), g.Dim)
	fmt.Fprintf(&b, "value range [%.4g, %.4g]\n\n", -maxAbs, maxAbs)
	b.WriteString(h.Render(50))
	fmt.Fprintf(&b, "\n%.1f%% of gradient values lie within 10%% of zero — a uniform\n", frac*100)
	b.WriteString("quantizer would waste most of its levels on the empty tails.\n")
	return &Report{
		Text: b.String(),
		Metrics: map[string]float64{
			"nnz":                float64(g.NNZ()),
			"fraction_near_zero": frac,
		},
	}, nil
}

// Fig8a reproduces the component ablation: epoch time for Adam, Adam+Key,
// Adam+Key+Quan, and full SketchML across LR, SVM, and Linear.
func Fig8a(cfg Config) (*Report, error) {
	train, test := dataset.KDD10Like(cfg.Seed).Split(0.75, cfg.Seed)
	reg := dataset.RegressionLike(cfg.Seed, 3000, 25000)
	regTrain, regTest := reg.Split(0.75, cfg.Seed)
	epochs := cfg.scaled(3)
	net := cluster.LabCluster()

	table := stats.NewTable("codec", "model", "sim s/epoch", "speedup vs Adam")
	metrics := map[string]float64{}
	for _, mdl := range model.All() {
		tr, te := train, test
		if mdl.Name() == "Linear" {
			tr, te = regTrain, regTest
		}
		var adamSec float64
		for _, c := range ablationCodecs() {
			res, err := run(mdl, c, 10, epochs, 0.1, tr, te, cfg.Seed)
			if err != nil {
				return nil, err
			}
			sim, network := price(res, net, 1)
			sec := meanSeconds(sim)
			if c.Name() == "Adam" {
				adamSec = sec
			}
			speedup := adamSec / sec
			table.AddRow(c.Name(), mdl.Name(), sec, speedup)
			metrics[fmt.Sprintf("%s_%s_seconds", c.Name(), mdl.Name())] = sec
			metrics[fmt.Sprintf("%s_%s_net_seconds", c.Name(), mdl.Name())] = meanSeconds(network)
			metrics[fmt.Sprintf("%s_%s_speedup", c.Name(), mdl.Name())] = speedup
		}
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// Fig8b reproduces the message-size and compression-rate comparison for the
// LR workload, with the per-section byte attribution our codecs expose.
func Fig8b(cfg Config) (*Report, error) {
	train, test := dataset.KDD10Like(cfg.Seed).Split(0.75, cfg.Seed)
	epochs := cfg.scaled(2)

	table := stats.NewTable("codec", "msg KB", "compression", "keys KB", "values KB", "meta KB")
	metrics := map[string]float64{}
	sample := firstGradient(train, 0.1)
	var rawBytes float64
	for _, c := range ablationCodecs() {
		res, err := run(model.LogisticRegression{}, c, 10, epochs, 0.1, train, test, cfg.Seed)
		if err != nil {
			return nil, err
		}
		// The paper's Figure 8(b) reports the aggregated gradient message;
		// the broadcast (driver→worker) message is our equivalent. Tiny
		// per-worker gradients sit below the q=256 regime and would
		// understate the MinMaxSketch stage.
		msg := res.AvgDownBytesPerRound()
		if c.Name() == "Adam" {
			rawBytes = msg
		}
		rate := rawBytes / msg
		var bd codec.Breakdown
		if a, ok := c.(codec.Analyzer); ok {
			bd, err = a.Analyze(sample)
			if err != nil {
				return nil, err
			}
		}
		table.AddRow(c.Name(), msg/1024, rate,
			float64(bd.Keys)/1024, float64(bd.Values)/1024, float64(bd.Meta)/1024)
		metrics[c.Name()+"_bytes"] = msg
		metrics[c.Name()+"_rate"] = rate
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// Fig8c reproduces the CPU-overhead measurement: how much extra CPU the
// compression pipeline costs relative to gradient computation.
func Fig8c(cfg Config) (*Report, error) {
	train, test := dataset.KDD10Like(cfg.Seed).Split(0.75, cfg.Seed)
	epochs := cfg.scaled(2)

	table := stats.NewTable("codec", "compute ms/epoch", "codec ms/epoch", "codec share %")
	metrics := map[string]float64{}
	for _, c := range ablationCodecs() {
		res, err := run(model.LogisticRegression{}, c, 10, epochs, 0.1, train, test, cfg.Seed)
		if err != nil {
			return nil, err
		}
		var compute, codecTime float64
		for _, e := range res.Epochs {
			compute += e.ComputeTime.Seconds()
			codecTime += e.EncodeTime.Seconds() + e.DecodeTime.Seconds()
		}
		n := float64(len(res.Epochs))
		share := 100 * codecTime / (compute + codecTime)
		table.AddRow(c.Name(), 1000*compute/n, 1000*codecTime/n, share)
		metrics[c.Name()+"_codec_share_pct"] = share
		metrics[c.Name()+"_up_bytes"] = res.AvgUpBytesPerRound()
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// Fig8d reproduces the batch-size/sparsity study: smaller batches mean
// sparser gradients, more rounds per epoch (longer epochs), and slightly
// more bytes per key for the delta encoding. Bytes per key is the codec's
// own count (SketchML.Analyze): every key list the encoder writes, with
// its count and first key, over the gradient's nonzeros.
func Fig8d(cfg Config) (*Report, error) {
	full := dataset.KDD10Like(cfg.Seed)
	train, test := full.Split(0.75, cfg.Seed)
	net := cluster.LabCluster()
	sk := codec.MustSketchML(codec.DefaultOptions())

	table := stats.NewTable("batch ratio", "gradient sparsity %", "sim s/epoch", "bytes/key")
	metrics := map[string]float64{}
	for _, ratio := range []float64{0.1, 0.03, 0.01} {
		res, err := run(model.LogisticRegression{}, sk, 10, cfg.scaled(2), ratio, train, test, cfg.Seed)
		if err != nil {
			return nil, err
		}
		g := firstGradient(train, ratio)
		sparsity := g.Sparsity() * 100
		bd, err := sk.Analyze(g)
		if err != nil {
			return nil, err
		}
		bpk := float64(bd.Keys) / float64(g.NNZ())
		sim, network := price(res, net, 1)
		sec := meanSeconds(sim)
		table.AddRow(ratio, sparsity, sec, bpk)
		key := fmt.Sprintf("ratio_%g", ratio)
		metrics[key+"_sparsity_pct"] = sparsity
		metrics[key+"_seconds"] = sec
		metrics[key+"_net_seconds"] = meanSeconds(network)
		metrics[key+"_bytes_per_key"] = bpk
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}
