// Package experiments regenerates every table and figure of the SketchML
// paper's evaluation (Section 4 and Appendix B) on the synthetic substrate
// described in DESIGN.md. Each experiment returns a Report containing the
// rendered rows/series plus the key numeric metrics; cmd/sketchbench is the
// command line to them.
//
// Absolute numbers differ from the paper (50-node Tencent clusters are
// replaced by one machine plus a network cost model); the shapes — who
// wins, by roughly what factor, where crossovers fall — are the
// reproduction target.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/model"
	"sketchml/internal/optim"
	"sketchml/internal/trainer"
)

// Report is the outcome of one experiment.
type Report struct {
	ID      string
	Title   string
	Text    string             // rendered tables / histograms / series
	Metrics map[string]float64 // key metrics, stable names, for benches
}

func (r *Report) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Text)
}

// Config scales an experiment run.
type Config struct {
	// Scale multiplies dataset sizes and epoch counts; 1.0 reproduces the
	// repository defaults, smaller values give quicker approximate runs.
	Scale float64
	// Seed offsets all data generation.
	Seed int64
}

func (c Config) scaled(n int) int {
	if c.Scale <= 0 {
		return n
	}
	v := int(float64(n) * c.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// runner is an experiment entry point.
type runner func(Config) (*Report, error)

var registry = map[string]struct {
	title string
	fn    runner
}{
	"fig4":  {"Nonuniform gradient values (histogram)", Fig4},
	"fig8a": {"Run time per epoch, component ablation", Fig8a},
	"fig8b": {"Message size and compression rate", Fig8b},
	"fig8c": {"CPU overhead of compression", Fig8c},
	"fig8d": {"Impact of batch size and sparsity", Fig8d},
	"fig9a": {"End-to-end run time, KDD12-like", Fig9a},
	"fig9b": {"End-to-end run time, CTR-like", Fig9b},
	"fig10": {"Convergence: loss vs time", Fig10},
	"tab2":  {"Model accuracy: converged loss / time", Table2},
	"fig11": {"Scalability: 5/10/50 workers", Fig11},
	"fig12": {"Distributed vs single node", Fig12},
	"fig13": {"Hyper-parameter sensitivity", Fig13},
	"tab3":  {"Sensitivity run times", Fig13},
	"fig14": {"Neural network (MLP) convergence", Fig14},
	"tab4":  {"Weight types", Table4},

	"ablation-minmax":   {"MinMaxSketch vs Count-Min strategy", AblationMinMaxVsCountMin},
	"ablation-sign":     {"Signed vs joint quantification", AblationSignSeparation},
	"ablation-grouping": {"Grouped sketch error vs r", AblationGrouping},
	"ablation-quantile": {"Quantile vs uniform quantization", AblationQuantileVsUniform},
	"ablation-keycodec": {"Elias–Fano vs delta-binary vs varint vs bitmap keys", AblationKeyCodecs},
	"ablation-lossy":    {"Related-work lossy baselines (1-bit, Top-K)", AblationLossyBaselines},
	"ablation-sketch":   {"GK (m = 128, 256) vs KLL vs the codec's sort, at the quantizer", AblationSplitFinders},
}

// IDs returns every experiment id in stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the human title for an experiment id.
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have: %s)",
			id, strings.Join(IDs(), ", "))
	}
	rep, err := e.fn(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	rep.ID = id
	rep.Title = e.title
	return rep, nil
}

// ---- shared helpers ----

// adam returns the paper's Adam optimizer factory at learning rate lr.
func adam(lr float64) trainer.OptimizerFactory {
	return func(dim uint64) optim.Optimizer { return optim.NewAdam(lr, dim) }
}

// threeCodecs returns the paper's Section 4.3 competitors.
func threeCodecs() []codec.Codec {
	return []codec.Codec{
		codec.MustSketchML(codec.DefaultOptions()),
		&codec.Raw{}, // "Adam"
		&codec.ZipML{Bits: 16},
	}
}

// ablationCodecs returns the paper's Figure 8 cumulative component stages.
func ablationCodecs() []codec.Codec {
	keyOnly := codec.DefaultOptions()
	keyOnly.Quantize, keyOnly.MinMax = false, false
	keyQuan := codec.DefaultOptions()
	keyQuan.MinMax = false
	return []codec.Codec{
		&codec.Raw{},
		codec.MustSketchML(keyOnly),
		codec.MustSketchML(keyQuan),
		codec.MustSketchML(codec.DefaultOptions()),
	}
}

// price puts a run on the modelled cluster: every epoch's simulated time
// (cluster.NetworkModel.EpochTime over the trainer's measured meters) and the
// network share of it. computeScale multiplies the measured gradient
// computation before it is divided over the workers — it calibrates the
// compute-to-communication ratio for workloads whose real counterparts are
// far more compute-heavy than the scaled-down substitutes (DESIGN.md,
// "Substitutions"); codec and network time are never scaled. The network
// share is a function of bytes alone, so unlike the simulated time (which
// adds measured CPU) it repeats exactly from run to run and host to host;
// reports carry it as "<name>_net_seconds" beside "<name>_seconds".
func price(res *trainer.Result, net cluster.NetworkModel, computeScale float64) (sim, network []time.Duration) {
	for _, e := range res.Epochs {
		workerCodec := e.EncodeTime + e.DecodeTime - e.DriverCodecTime
		parallel := time.Duration(float64(e.ComputeTime)*computeScale) + workerCodec
		s, n := net.EpochTime(parallel, e.DriverCodecTime, res.Workers, e.Rounds, e.UpBytes, e.DownBytes)
		sim, network = append(sim, s), append(network, n)
	}
	return sim, network
}

// total sums a run's per-epoch times.
func total(epochs []time.Duration) (sum time.Duration) {
	for _, d := range epochs {
		sum += d
	}
	return sum
}

// meanSeconds is the mean of a run's per-epoch times, in seconds.
func meanSeconds(epochs []time.Duration) float64 {
	return (total(epochs) / time.Duration(len(epochs))).Seconds()
}

// run trains one generalized linear model through one codec with the
// settings every figure shares: Adam at 0.1 and λ = 0.01. batchFrac is 0.1
// everywhere but Figure 8(d), which varies it.
func run(mdl model.Model, c codec.Codec, workers, epochs int, batchFrac float64,
	train, test *dataset.Dataset, seed int64) (*trainer.Result, error) {
	return trainer.Run(trainer.Config{
		Trainable:     model.Wrap(mdl),
		CodecFactory:  func() codec.Codec { return c },
		Optimizer:     adam(0.1),
		Workers:       workers,
		BatchFraction: batchFrac,
		Epochs:        epochs,
		Lambda:        0.01,
		Seed:          seed,
	}, train, test)
}
