// Package sketchml is a Go implementation of SketchML (Jiang, Fu, Yang,
// Cui — SIGMOD 2018): sketch-based compression of the sparse key–value
// gradients exchanged during distributed machine learning.
//
// A SketchML message compresses a sparse gradient {(k_j, v_j)} with three
// cooperating components:
//
//   - Quantile-bucket quantification: a streaming quantile sketch summarizes
//     the (highly nonuniform, near-zero-concentrated) gradient values into q
//     equal-population buckets; each value is replaced by its bucket index.
//   - MinMaxSketch: a new sketch structure that stores the bucket indexes in
//     s hash tables with a min-on-insert / max-on-query collision rule, so
//     decoding can only decay a gradient, never amplify or sign-flip it.
//   - Delta-binary key encoding: the sorted integer keys are stored as
//     increments in the fewest whole bytes, losslessly.
//
// The package exposes the compression codecs (including the paper's Adam
// and ZipML baselines), the distributed trainer that exchanges compressed
// gradients between workers and a driver, synthetic dataset generators, and
// the experiment harness that regenerates every table and figure of the
// paper's evaluation. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for reproduction results.
//
// Quick start:
//
//	grad := sketchml.GradientFromMap(1_000_000, map[uint64]float64{42: 0.5, 1000: -0.25})
//	comp, _ := sketchml.NewCompressor(sketchml.DefaultOptions())
//	msg, _ := comp.Encode(grad)
//	back, _ := comp.Decode(msg)
package sketchml

import (
	"context"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/experiments"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
	"sketchml/internal/obs"
	"sketchml/internal/optim"
	"sketchml/internal/trainer"
)

// Gradient is a sparse gradient vector: parallel Keys/Values with keys
// strictly ascending, over a model of Dim dimensions.
type Gradient = gradient.Sparse

// NewGradient creates an empty gradient over dim dimensions with capacity
// hint n.
func NewGradient(dim uint64, n int) *Gradient { return gradient.NewSparse(dim, n) }

// GradientFromMap builds a gradient from an unordered key→value map.
func GradientFromMap(dim uint64, m map[uint64]float64) *Gradient {
	return gradient.FromMap(dim, m)
}

// GradientFromDense sparsifies a dense vector, keeping |v| > threshold.
func GradientFromDense(dense []float64, threshold float64) *Gradient {
	return gradient.FromDense(dense, threshold)
}

// Codec converts gradients to wire messages and back. Keys always survive
// exactly; values may be quantized depending on the codec.
type Codec = codec.Codec

// Options configures the SketchML compressor; start from DefaultOptions.
type Options = codec.Options

// DefaultOptions returns the paper's default configuration: q=256 buckets,
// quantile sketch size 128, a 2×(d/5) MinMaxSketch in 8 groups, and all
// three components enabled.
func DefaultOptions() Options { return codec.DefaultOptions() }

// Compressor is the SketchML codec.
type Compressor = codec.SketchML

// NewCompressor validates opts and builds a SketchML compressor.
func NewCompressor(opts Options) (*Compressor, error) { return codec.NewSketchML(opts) }

// RawCodec is the uncompressed baseline the paper calls "Adam": fixed-width
// keys and IEEE float values.
type RawCodec = codec.Raw

// ZipMLCodec is the uniform fixed-point quantification baseline.
type ZipMLCodec = codec.ZipML

// OneBitCodec is the 1-bit SGD threshold-truncation baseline from the
// paper's related work.
type OneBitCodec = codec.OneBit

// TopKCodec keeps only the largest-magnitude fraction of gradient entries.
type TopKCodec = codec.TopK

// Breakdown attributes an encoded message's bytes to keys, values, and
// quantizer metadata.
type Breakdown = codec.Breakdown

// Dataset is a collection of sparse labeled instances.
type Dataset = dataset.Dataset

// Instance is one training example.
type Instance = dataset.Instance

// SyntheticConfig describes a synthetic sparse dataset drawn from a Zipf
// feature distribution.
type SyntheticConfig = dataset.SyntheticConfig

// Synthetic dataset constructors; the *Like presets are scaled-down
// stand-ins for the paper's Table 1 datasets.
var (
	GenerateDataset = dataset.Generate
	KDD10Like       = dataset.KDD10Like
	KDD12Like       = dataset.KDD12Like
	CTRLike         = dataset.CTRLike
	MNISTLike       = dataset.MNISTLike
	ParseLibSVM     = dataset.ParseLibSVM
	WriteLibSVM     = dataset.WriteLibSVM
)

// The paper's three evaluated models, each ready for TrainConfig.Trainable.
var (
	LogisticRegression = func() Trainable { return model.Wrap(model.LogisticRegression{}) }
	SVM                = func() Trainable { return model.Wrap(model.SVM{}) }
	LinearRegression   = func() Trainable { return model.Wrap(model.Linear{}) }
	ModelByName        = model.ByName
)

// Optimizer applies sparse gradients to a dense parameter vector.
type Optimizer = optim.Optimizer

// NewAdam returns the Adam optimizer with the paper's hyper-parameters
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64, dim uint64) Optimizer { return optim.NewAdam(lr, dim) }

// NewSGD returns plain SGD.
func NewSGD(lr float64) Optimizer { return optim.NewSGD(lr) }

// TrainConfig configures a distributed training run.
type TrainConfig = trainer.Config

// TrainResult reports a run's per-epoch statistics: what it measured — loss,
// traffic, per-stage times — on the machine it ran on.
type TrainResult = trainer.Result

// EpochStats is one epoch of a training run.
type EpochStats = trainer.EpochStats

// Topology selects the gather aggregation shape of a driver run (set
// TrainConfig.Topology): star decodes every worker's message at the driver,
// tree merges encoded messages wire-to-wire on their way there and requires
// a mergeable codec (codec.Merger — SketchML and Raw).
type Topology = cluster.Topology

// Gather topology values for TrainConfig.Topology.
const (
	TopologyStar = cluster.TopologyStar
	TopologyTree = cluster.TopologyTree
)

// ParseTopology maps "star" (or "") and "tree" to a Topology.
func ParseTopology(s string) (Topology, error) { return cluster.ParseTopology(s) }

// Train executes the paper's synchronous distributed training loop:
// the training set is sharded over cfg.Workers workers, each round every
// worker's gradient travels through a cfg.CodecFactory codec to the
// driver, and the aggregate is broadcast back.
func Train(cfg TrainConfig, train, test *Dataset) (*TrainResult, error) {
	return trainer.Run(cfg, train, test)
}

// ExperimentConfig scales an experiment run.
type ExperimentConfig = experiments.Config

// ExperimentReport is the rendered and metric output of one experiment.
type ExperimentReport = experiments.Report

// RunExperiment regenerates one of the paper's tables or figures by id
// (e.g. "fig8a", "tab2"); ExperimentIDs lists them all.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentReport, error) {
	return experiments.Run(id, cfg)
}

// ExperimentIDs returns every experiment id in stable order.
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentTitle returns the human title for an experiment id.
func ExperimentTitle(id string) string { return experiments.Title(id) }

// Trainable is the model contract the trainer accepts (set
// TrainConfig.Trainable). The paper's generalized linear models come
// wrapped from LogisticRegression, SVM, LinearRegression and ModelByName.
type Trainable = model.Trainable

// Metrics is the run-wide observability registry: atomic counters, gauges,
// log-spaced latency histograms, and a bounded span trace, exportable as
// one JSON snapshot. Pass the same registry to Options.Metrics and
// TrainConfig.Metrics for a coherent cross-layer view; a nil registry
// disables everything at negligible cost.
type Metrics = obs.Registry

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// RunReport is the validated JSON document summarizing one training run:
// per-epoch wire bytes and compression ratio against the raw float64
// baseline, per-stage time breakdown, measured sketch recovery error, and
// the full metrics snapshot.
type RunReport = obs.RunReport

// SketchErrorSummary is the continuously measured sketch recovery error of
// a run (see TrainResult.SketchError).
type SketchErrorSummary = obs.ErrorSummary

// BuildRunReport assembles a validated RunReport from a finished training
// run. m may be nil; pass the registry the run recorded into to embed and
// cross-check its snapshot.
func BuildRunReport(tool string, res *TrainResult, m *Metrics) (*RunReport, error) {
	return trainer.BuildRunReport(tool, res, m)
}

// ReadRunReport loads and validates a run report written by
// RunReport.WriteFile (or `sketchml -metrics-out`).
func ReadRunReport(path string) (*RunReport, error) { return obs.ReadReportFile(path) }

// TrainContext is Train bounded by a context: cancellation unblocks every
// receive and stops the run within one round (plus TrainConfig.RoundDeadline
// in tolerant mode), returning an error that wraps ctx.Err(). For a
// graceful stop that checkpoints instead, close TrainConfig.Drain.
func TrainContext(ctx context.Context, cfg TrainConfig, train, test *Dataset) (*TrainResult, error) {
	return trainer.RunContext(ctx, cfg, train, test)
}

// Checkpoint is a crash-safe snapshot of a training run at a round
// boundary: parameters, optimizer state, round counter, and the config
// fingerprint that guards resumption, all behind a checksum. Produce one
// via TrainConfig.OnCheckpoint (periodic, and final on drain) — the hook
// borrows the run's live state until it returns, so serialize it there
// (Checkpoint.Marshal or AppendMarshal) or keep a copy made with
// UnmarshalCheckpoint(cp.Marshal()); resume by setting TrainConfig.Resume.
type Checkpoint = trainer.Checkpoint

// UnmarshalCheckpoint decodes and verifies a checkpoint blob written by
// Checkpoint.Marshal. Corrupt input fails with ErrCheckpointCorrupt.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	return trainer.UnmarshalCheckpoint(data)
}

// ErrCheckpointCorrupt classifies every structural checkpoint decode
// failure (bad magic, truncation, checksum mismatch).
var ErrCheckpointCorrupt = trainer.ErrCheckpointCorrupt
