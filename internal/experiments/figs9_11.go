package experiments

import (
	"fmt"
	"strings"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/model"
	"sketchml/internal/quantizer"
	"sketchml/internal/stats"
	"sketchml/internal/trainer"
)

// Compute-scale calibrations (see price): the real
// CTR workload is compute-dominant (300M dense-ish instances), and the
// paper's scalability study sits in a regime where both compute and
// communication matter. These constants pin our scaled-down substitutes to
// the same regimes.
const (
	ctrComputeScale   = 16500
	fig11ComputeScale = 6750
	fig12ComputeScale = 110
)

// endToEnd runs the three competitor codecs across the three models on one
// dataset family and tabulates simulated epoch times.
func endToEnd(cfg Config, clsData *dataset.Dataset, regData *dataset.Dataset,
	workers int, net cluster.NetworkModel, computeScale float64) (*Report, error) {
	train, test := clsData.Split(0.75, cfg.Seed)
	regTrain, regTest := regData.Split(0.75, cfg.Seed)
	epochs := cfg.scaled(3)

	table := stats.NewTable("model", "codec", "sim s/epoch", "speedup vs Adam")
	metrics := map[string]float64{}
	for _, mdl := range model.All() {
		tr, te := train, test
		if mdl.Name() == "Linear" {
			tr, te = regTrain, regTest
		}
		secs, netSecs := map[string]float64{}, map[string]float64{}
		for _, c := range threeCodecs() {
			res, err := run(mdl, c, workers, epochs, 0.1, tr, te, cfg.Seed)
			if err != nil {
				return nil, err
			}
			sim, network := price(res, net, computeScale)
			secs[c.Name()], netSecs[c.Name()] = meanSeconds(sim), meanSeconds(network)
		}
		for _, c := range threeCodecs() {
			name := c.Name()
			speedup := secs["Adam"] / secs[name]
			table.AddRow(mdl.Name(), name, secs[name], speedup)
			metrics[fmt.Sprintf("%s_%s_seconds", name, mdl.Name())] = secs[name]
			metrics[fmt.Sprintf("%s_%s_speedup", name, mdl.Name())] = speedup
			metrics[fmt.Sprintf("%s_%s_net_seconds", name, mdl.Name())] = netSecs[name]
			metrics[fmt.Sprintf("%s_%s_net_speedup", name, mdl.Name())] = netSecs["Adam"] / netSecs[name]
		}
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// Fig9a reproduces the KDD12 end-to-end run times with 10 workers.
func Fig9a(cfg Config) (*Report, error) {
	return endToEnd(cfg, dataset.KDD12Like(cfg.Seed),
		dataset.RegressionLike(cfg.Seed, 6000, 50000), 10, cluster.ProductionCluster(), 1)
}

// Fig9b reproduces the CTR end-to-end run times with 50 workers. CTR-like
// data is denser, so compression gains are smaller (Section 4.3.2).
func Fig9b(cfg Config) (*Report, error) {
	// ctrComputeScale calibrates the compute:communication ratio to the paper's
	// CTR regime, where per-instance computation dominates (Section 4.3.2).
	return endToEnd(cfg, dataset.CTRLike(cfg.Seed),
		dataset.RegressionLike(cfg.Seed+5, 5000, 15000), 50, cluster.ProductionCluster(), ctrComputeScale)
}

// Fig10 reproduces the convergence curves: test loss against cumulative
// simulated time for the three codecs across models and both dataset
// families.
func Fig10(cfg Config) (*Report, error) {
	type panel struct {
		name     string
		cls, reg *dataset.Dataset
		workers  int
	}
	panels := []panel{
		{"KDD12", dataset.KDD12Like(cfg.Seed), dataset.RegressionLike(cfg.Seed, 6000, 50000), 10},
		{"CTR", dataset.CTRLike(cfg.Seed), dataset.RegressionLike(cfg.Seed+5, 5000, 15000), 20},
	}
	epochs := cfg.scaled(6)
	net := cluster.ProductionCluster()

	var b strings.Builder
	metrics := map[string]float64{}
	for _, p := range panels {
		train, test := p.cls.Split(0.75, cfg.Seed)
		regTrain, regTest := p.reg.Split(0.75, cfg.Seed)
		for _, mdl := range model.All() {
			tr, te := train, test
			if mdl.Name() == "Linear" {
				tr, te = regTrain, regTest
			}
			fmt.Fprintf(&b, "--- %s, %s (loss vs simulated seconds) ---\n", mdl.Name(), p.name)
			var series []stats.Series
			var adamFinal float64
			for _, c := range threeCodecs() {
				res, err := run(mdl, c, p.workers, epochs, 0.1, tr, te, cfg.Seed)
				if err != nil {
					return nil, err
				}
				sim, _ := price(res, net, 1)
				s := lossCurve(c.Name(), res, sim)
				if s.Name == "Adam" {
					adamFinal = res.FinalLoss
				}
				fmt.Fprintf(&b, "%-12s", s.Name)
				for i := range s.X {
					fmt.Fprintf(&b, " (%.2fs, %.4f)", s.X[i], s.Y[i])
				}
				series = append(series, s)
				b.WriteByte('\n')
			}
			b.WriteByte('\n')
			b.WriteString(stats.Plot(series, 64, 10))
			// Shape metric: time for each codec to first reach within 2% of
			// Adam's final loss.
			for _, s := range series {
				t := timeToReach(s, adamFinal*1.02)
				metrics[fmt.Sprintf("%s_%s_%s_time_to_target", s.Name, mdl.Name(), p.name)] = t
			}
			b.WriteByte('\n')
		}
	}
	return &Report{Text: b.String(), Metrics: metrics}, nil
}

// lossCurve is a run's convergence curve (Figure 10): the test loss after
// each epoch (Y) against the cumulative simulated seconds the run had taken
// by then (X); sim is the run's priced epochs.
func lossCurve(name string, res *trainer.Result, sim []time.Duration) stats.Series {
	s := stats.Series{Name: name}
	cum := 0.0
	for i, e := range res.Epochs {
		cum += sim[i].Seconds()
		s.X = append(s.X, cum)
		s.Y = append(s.Y, e.TestLoss)
	}
	return s
}

// timeToReach returns the first curve time at which loss <= target, or the
// final time if never reached.
func timeToReach(curve stats.Series, target float64) float64 {
	for i, loss := range curve.Y {
		if loss <= target {
			return curve.X[i]
		}
	}
	return curve.X[len(curve.X)-1]
}

// Table2 reproduces the model-accuracy table: minimal loss and simulated
// time to convergence, where convergence means the loss varied by less than
// 1% within five consecutive epochs.
func Table2(cfg Config) (*Report, error) {
	clsTrain, clsTest := dataset.KDD12Like(cfg.Seed).Split(0.75, cfg.Seed)
	regTrain, regTest := dataset.RegressionLike(cfg.Seed, 6000, 50000).Split(0.75, cfg.Seed)
	maxEpochs := cfg.scaled(25)
	net := cluster.ProductionCluster()

	table := stats.NewTable("model", "codec", "min loss", "converged (sim s)")
	metrics := map[string]float64{}
	for _, mdl := range model.All() {
		tr, te := clsTrain, clsTest
		if mdl.Name() == "Linear" {
			tr, te = regTrain, regTest
		}
		for _, c := range threeCodecs() {
			res, err := run(mdl, c, 10, maxEpochs, 0.1, tr, te, cfg.Seed)
			if err != nil {
				return nil, err
			}
			sim, network := price(res, net, 1)
			minLoss, convTime := convergence(lossCurve(c.Name(), res, sim))
			table.AddRow(mdl.Name(), c.Name(), minLoss, convTime)
			metrics[fmt.Sprintf("%s_%s_min_loss", c.Name(), mdl.Name())] = minLoss
			metrics[fmt.Sprintf("%s_%s_conv_seconds", c.Name(), mdl.Name())] = convTime
			metrics[fmt.Sprintf("%s_%s_net_seconds", c.Name(), mdl.Name())] = meanSeconds(network)
		}
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// convergence returns the minimal test loss and the cumulative simulated
// time at which the <1%-variation-over-5-epochs criterion first held.
func convergence(curve stats.Series) (minLoss, seconds float64) {
	minLoss = curve.Y[0]
	for _, loss := range curve.Y {
		if loss < minLoss {
			minLoss = loss
		}
	}
	const window = 5
	for i := window - 1; i < len(curve.Y); i++ {
		lo, hi := curve.Y[i], curve.Y[i]
		for _, loss := range curve.Y[i-window+1 : i+1] {
			if loss < lo {
				lo = loss
			}
			if loss > hi {
				hi = loss
			}
		}
		if lo > 0 && (hi-lo)/lo < 0.01 {
			return minLoss, curve.X[i]
		}
	}
	return minLoss, curve.X[len(curve.X)-1]
}

// Fig11 reproduces the scalability study: epoch time at 5, 10, and 50
// workers. Uncompressed Adam degrades at 50 workers (communication
// overwhelms the compute saving) while SketchML and ZipML keep improving.
func Fig11(cfg Config) (*Report, error) {
	clsTrain, clsTest := dataset.KDD12Like(cfg.Seed).Split(0.75, cfg.Seed)
	regTrain, regTest := dataset.RegressionLike(cfg.Seed, 6000, 50000).Split(0.75, cfg.Seed)
	epochs := cfg.scaled(2)
	net := cluster.ProductionCluster()

	table := stats.NewTable("model", "codec", "5 workers (s)", "10 workers (s)", "50 workers (s)")
	// The compute term must be realistic for the crossover to appear: with
	// unscaled (trivial) compute, every codec is purely communication-bound
	// and nothing improves with more workers.
	metrics := map[string]float64{}
	for _, mdl := range model.All() {
		tr, te := clsTrain, clsTest
		if mdl.Name() == "Linear" {
			tr, te = regTrain, regTest
		}
		for _, c := range threeCodecs() {
			var secs [3]float64
			for i, w := range []int{5, 10, 50} {
				res, err := run(mdl, c, w, epochs, 0.1, tr, te, cfg.Seed)
				if err != nil {
					return nil, err
				}
				sim, network := price(res, net, fig11ComputeScale)
				secs[i] = meanSeconds(sim)
				metrics[fmt.Sprintf("%s_%s_w%d_seconds", c.Name(), mdl.Name(), w)] = secs[i]
				metrics[fmt.Sprintf("%s_%s_w%d_net_seconds", c.Name(), mdl.Name(), w)] = meanSeconds(network)
			}
			table.AddRow(mdl.Name(), c.Name(), secs[0], secs[1], secs[2])
		}
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// Fig12 reproduces the Appendix B.1 comparison against a single-node system
// ("SkLearn" in the paper): one worker with raw gradients and no network
// versus SketchML on 5 and 10 workers.
func Fig12(cfg Config) (*Report, error) {
	train, test := dataset.KDD10Like(cfg.Seed).Split(0.75, cfg.Seed)
	regTrain, regTest := dataset.RegressionLike(cfg.Seed, 3000, 25000).Split(0.75, cfg.Seed)
	epochs := cfg.scaled(3)
	localNet := cluster.NetworkModel{BandwidthBytesPerSec: 1e15, LatencySec: 0, Congestion: 1}
	lan := cluster.FastLAN()

	type variant struct {
		name    string
		c       codec.Codec
		workers int
		net     cluster.NetworkModel
	}
	variants := []variant{
		{"SingleNode", &codec.Raw{}, 1, localNet},
		{"SketchML-5", codec.MustSketchML(codec.DefaultOptions()), 5, lan},
		{"SketchML-10", codec.MustSketchML(codec.DefaultOptions()), 10, lan},
	}
	table := stats.NewTable("model", "system", "sim s/epoch")
	metrics := map[string]float64{}
	for _, mdl := range model.All() {
		tr, te := train, test
		if mdl.Name() == "Linear" {
			tr, te = regTrain, regTest
		}
		for _, v := range variants {
			res, err := run(mdl, v.c, v.workers, epochs, 0.1, tr, te, cfg.Seed)
			if err != nil {
				return nil, err
			}
			sim, network := price(res, v.net, fig12ComputeScale)
			sec := meanSeconds(sim)
			table.AddRow(mdl.Name(), v.name, sec)
			metrics[fmt.Sprintf("%s_%s_seconds", v.name, mdl.Name())] = sec
			metrics[fmt.Sprintf("%s_%s_net_seconds", v.name, mdl.Name())] = meanSeconds(network)
		}
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// Fig13 reproduces the sensitivity study (Figure 13 + Table 3): quantile
// sketch size, MinMaxSketch rows, and MinMaxSketch columns, evaluated on
// Linear regression — epoch time plus loss after the epoch budget.
func Fig13(cfg Config) (*Report, error) {
	train, test := dataset.RegressionLike(cfg.Seed, 6000, 50000).Split(0.75, cfg.Seed)
	epochs := cfg.scaled(4)
	net := cluster.ProductionCluster()

	type variant struct {
		name string
		mut  func(*codec.Options)
	}
	variants := []variant{
		{"default", func(o *codec.Options) {}},
		// The sketch-size pair runs the paper's streaming sketch: SketchSize
		// sizes GK and KLL only, the default split finder has no summary.
		{"quan_128", func(o *codec.Options) { o.Algo = quantizer.GKAlgo }},
		{"quan_256", func(o *codec.Options) { o.Algo, o.SketchSize = quantizer.GKAlgo, 256 }},
		{"row_4", func(o *codec.Options) { o.Rows = 4 }},
		{"col_d/2", func(o *codec.Options) { o.ColsFraction = 0.5 }},
	}
	table := stats.NewTable("variant", "sim s/epoch", "final loss")
	metrics := map[string]float64{}
	for _, v := range variants {
		o := codec.DefaultOptions()
		v.mut(&o)
		res, err := run(model.Linear{}, codec.MustSketchML(o), 10, epochs, 0.1, train, test, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sim, network := price(res, net, 1)
		sec := meanSeconds(sim)
		table.AddRow(v.name, sec, res.FinalLoss)
		metrics[v.name+"_seconds"] = sec
		metrics[v.name+"_net_seconds"] = meanSeconds(network)
		metrics[v.name+"_loss"] = res.FinalLoss
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// Table4 reproduces the weight-type comparison: SketchML against 8- and
// 16-bit ZipML and float/double Adam, on LR.
func Table4(cfg Config) (*Report, error) {
	train, test := dataset.KDD12Like(cfg.Seed).Split(0.75, cfg.Seed)
	epochs := cfg.scaled(4)
	net := cluster.ProductionCluster()

	codecs := []codec.Codec{
		codec.MustSketchML(codec.DefaultOptions()),
		&codec.ZipML{Bits: 8},
		&codec.ZipML{Bits: 16},
		&codec.Raw{Float32: true},
		&codec.Raw{},
	}
	table := stats.NewTable("codec", "sim s/epoch", "final loss")
	metrics := map[string]float64{}
	for _, c := range codecs {
		res, err := run(model.LogisticRegression{}, c, 10, epochs, 0.1, train, test, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sim, network := price(res, net, 1)
		sec := meanSeconds(sim)
		table.AddRow(c.Name(), sec, res.FinalLoss)
		metrics[c.Name()+"_seconds"] = sec
		metrics[c.Name()+"_net_seconds"] = meanSeconds(network)
		metrics[c.Name()+"_loss"] = res.FinalLoss
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}
