// Package trainer implements the paper's distributed training loop: the
// dataset is sharded over W workers, each worker computes a mini-batch
// gradient on its shard, gradients travel (compressed by a pluggable codec)
// to the driver, the driver aggregates and broadcasts the aggregate back,
// and every replica applies the same optimizer step — the synchronous
// Spark-style topology of Section 4.1.
//
// The trainer runs the real message flow (every byte passes through the
// codec and a cluster.Conn) and meters compute, encode/decode time, and
// traffic per epoch. Because the reproduction runs on one machine, epoch
// times for cluster-scale configurations are additionally reported through
// the cluster.NetworkModel cost model (see DESIGN.md, "Substitutions").
package trainer

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
	"sketchml/internal/obs"
	"sketchml/internal/optim"
)

// OptimizerFactory builds one optimizer instance per model replica. Every
// replica must receive an identical configuration so that applying the same
// aggregate gradients keeps replicas in sync.
type OptimizerFactory func(dim uint64) optim.Optimizer

// Config describes one training run.
type Config struct {
	Model model.Model
	// Trainable overrides Model with a general trainable (e.g. model.FM).
	// When nil, Model is wrapped via model.Wrap.
	Trainable model.Trainable
	// Codec compresses gradients in both directions. nil means codec.Raw.
	Codec codec.Codec
	// CodecFactory, when set, builds a fresh codec instance for every
	// party (each worker and the driver) instead of sharing Codec. Required
	// for stateful codecs such as codec.ErrorFeedback, whose residual is
	// per-sender. Overrides Codec.
	CodecFactory func() codec.Codec
	// Optimizer builds per-replica optimizers; nil means Adam with LR 0.1.
	Optimizer OptimizerFactory
	// Workers is the number of executors (the paper's W). Minimum 1.
	Workers int
	// Topology selects how worker gradients reach the driver on the gather
	// half of each round (broadcast always fans out over the direct driver
	// links). The zero value is cluster.TopologyStar — today's behavior:
	// every worker sends to the driver, which decodes all W messages.
	// TopologyTree and TopologyRing aggregate en route via codec merging,
	// so they require a Codec implementing codec.Merger, the in-memory
	// transport (UseTCP only wires star links) and at most 65535 workers.
	// All three share one driver gather and one fault arithmetic: the
	// topology decides only which driver links are listened on, which frame
	// is expected on them, and whether messages are weighted by total
	// contributors (star, tree) or per key-range chunk (ring). A dead link
	// or an undecodable frame is handled the same way on each (see
	// RoundDeadline). Driver topology only: RunPS and RunSSP reject
	// non-star settings.
	Topology cluster.Topology
	// BatchFraction is the global mini-batch size as a fraction of the
	// training set (the paper uses 0.1). Values <= 0 default to 0.1.
	BatchFraction float64
	// Epochs is the number of passes over the data. Minimum 1.
	Epochs int
	// Lambda is the ℓ2 regularization coefficient (paper: 0.01).
	Lambda float64
	// Seed drives batching shuffles.
	Seed int64
	// Network converts measured traffic into simulated epoch times.
	// The zero value defaults to cluster.LabCluster().
	Network cluster.NetworkModel
	// UseTCP routes every message over loopback TCP instead of in-memory
	// channels. Slower, but exercises the real network stack.
	UseTCP bool
	// ComputeScale multiplies the measured gradient-computation time inside
	// the simulated epoch time (default 1). It calibrates the
	// compute-to-communication ratio for workloads whose real counterparts
	// are far more compute-heavy than our scaled-down substitutes — e.g. the
	// paper's CTR dataset, where per-instance cost dominates (Section
	// 4.3.2). Codec and network times are never scaled.
	ComputeScale float64

	// RoundDeadline bounds every receive in the training loop: the
	// driver's per-round gather, each worker's wait for the broadcast, and
	// the end-of-run report collection. When it is set, a timed-out or
	// undecodable gradient no longer aborts the run — the round proceeds
	// with the gradients that arrived (rescaled to stay unbiased), the
	// offender accrues a strike, and only MaxStrikes consecutive misses or
	// quorum loss abort. On every topology and every link, a frame that
	// fails its checksum, its bounds or its decode, or belongs to another
	// round, is counted and discarded and the wait continues on what is
	// left of the deadline, so a good duplicate behind it is still
	// accepted; a dead link ends the wait at once as a miss and counts no
	// timeout. Zero keeps the strict fail-stop behavior: every receive
	// blocks indefinitely and any fault is fatal.
	RoundDeadline time.Duration
	// MinGatherFraction is the quorum: the smallest fraction of workers
	// whose gradients must arrive for a round to proceed. Consulted only
	// when RoundDeadline > 0; values outside (0, 1] default to 0.5.
	MinGatherFraction float64
	// MaxStrikes aborts the run once a single worker has missed this many
	// consecutive rounds (timeout, corrupt frame, or dead link). A round
	// with its gradient present resets the worker's strikes. Consulted
	// only when RoundDeadline > 0; values < 1 default to 8.
	MaxStrikes int
	// Chaos, when non-nil, wraps every driver↔worker link with a
	// fault-injecting cluster.ChaosConn. Each link's schedule derives
	// deterministically from Chaos.Seed and the worker index, so a run's
	// fault pattern is exactly reproducible. Outage windows are configured
	// per worker via ChaosOutage, not here.
	Chaos *cluster.ChaosSpec
	// ChaosOutage maps a worker index to an outage window on that worker's
	// link ([Start, End) in per-direction frame ordinals — with one frame
	// each way per round, approximately a round range). Simulates a
	// disconnect followed by a rejoin. Ignored when Chaos is nil.
	ChaosOutage map[int]cluster.OutageWindow

	// Drain, when non-nil, requests a graceful stop: once the channel is
	// closed (close it — a single send also works but only once), the
	// driver finishes the round in flight, broadcasts a stop frame so
	// every worker exits cleanly and files its report, takes a final
	// checkpoint through OnCheckpoint, and returns early with
	// Result.Drained set. Honored by all three topologies; Run drains at
	// round granularity, RunPS and RunSSP at epoch granularity.
	Drain <-chan struct{}
	// OnCheckpoint, when non-nil, receives a full replica-state snapshot
	// at every CheckpointEvery-th epoch boundary and once more when a
	// drain stops the run mid-epoch. The callback owns the checkpoint
	// (nothing in it aliases live state); returning an error aborts the
	// run.
	OnCheckpoint func(*Checkpoint) error
	// CheckpointEvery is OnCheckpoint's epoch period; values < 1 default
	// to 1 (every epoch boundary). Ignored when OnCheckpoint is nil.
	CheckpointEvery int
	// Resume restores a checkpoint taken by an identically configured
	// run: parameters and optimizer state load bit-exactly, every worker
	// fast-forwards its deterministic batcher to the checkpointed round,
	// and training continues as if never interrupted. A checkpoint from a
	// different configuration (workers, seed, batch geometry, codec,
	// model) is an error.
	Resume *Checkpoint

	// Metrics, when non-nil, receives the run's observability stream:
	// per-round gather/broadcast latency histograms, cluster traffic
	// counters aggregated across links, robustness tallies, and per-epoch
	// trace spans. It also enables the continuous sketch-error measurement
	// (Result.SketchError): each round the driver decodes its own broadcast
	// and compares it against the exact aggregate. Pass the same registry
	// to the codec (codec.Options.Metrics) to get one coherent snapshot.
	// nil disables everything at negligible cost.
	Metrics *obs.Registry

	// decodeSlots bounds the run's concurrently timed gather decodes at
	// GOMAXPROCS; fill makes it, timedDecode takes from it.
	decodeSlots chan struct{}
}

// EpochStats reports one epoch of a run.
type EpochStats struct {
	Epoch     int
	TrainLoss float64 // mean batch loss observed during the epoch
	TestLoss  float64 // unregularized test loss after the epoch
	Accuracy  float64 // classification accuracy (0 for Linear)

	Rounds    int
	UpBytes   int64 // worker→driver traffic
	DownBytes int64 // driver→worker traffic per worker (total/W)
	// RawUpBytes/RawDownBytes are the same traffic priced at the
	// uncompressed baseline (raw float64 key–values in the frame
	// envelope); UpBytes/RawUpBytes is the epoch's end-to-end compression
	// ratio. RawDownBytes is per worker, like DownBytes.
	RawUpBytes   int64
	RawDownBytes int64
	// DecodedBytes counts gather-side codec payload bytes the driver
	// actually decoded this epoch (frame envelopes and aggregate prefixes
	// excluded). Under star it tracks UpBytes minus envelopes; under tree
	// or ring it is the measure of how much decode work hierarchical
	// aggregation took off the driver.
	DecodedBytes int64

	// Merges and MergeTime account the wire-to-wire message merges workers
	// performed on behalf of the driver (tree interior nodes, ring reduce
	// steps). Like ComputeTime they are end-of-run worker totals spread
	// uniformly across epochs. Always zero under star.
	Merges    int64
	MergeTime time.Duration

	ComputeTime time.Duration // summed worker gradient computation
	// EncodeTime and DecodeTime sum every party's per-call wall time in
	// the codec (driver and workers), not on-CPU time; the driver's gather
	// decodes are timed at most GOMAXPROCS at once (see timedDecode).
	EncodeTime time.Duration
	DecodeTime time.Duration
	// GatherTime and BroadcastTime are driver-side wall clocks that
	// partition each round (gather+aggregate, then encode+send+apply), so
	// their sum never exceeds WallTime — unlike the summed-across-parties
	// meters above, which can.
	GatherTime    time.Duration
	BroadcastTime time.Duration

	// SimTime estimates the epoch's wall time on the configured cluster:
	// parallel compute + driver serial codec work + modeled network time.
	SimTime time.Duration
	// WallTime is the actually measured single-machine duration.
	WallTime time.Duration

	// Robustness counters, nonzero only when Config.RoundDeadline enables
	// degraded rounds (see DESIGN.md, "Fault tolerance"). All are
	// driver-side observations.
	Timeouts       int // receive deadlines that expired during gather (a dead link is a miss, not a timeout)
	SkippedGrads   int // worker gradients absent from a round's aggregate (ring: key-range chunks); never negative
	CorruptFrames  int // frames that failed envelope parse, the aggregate-count bound or codec decode
	StaleFrames    int // late or duplicated frames from an earlier round
	Strikes        int // consecutive-miss strikes accrued by workers
	DegradedRounds int // rounds aggregated from fewer than W gradients
}

// CurvePoint is one point of the loss-vs-time convergence curve
// (Figure 10): cumulative simulated seconds against test loss.
type CurvePoint struct {
	Seconds float64
	Loss    float64
}

// Result aggregates a full run.
type Result struct {
	CodecName string
	ModelName string
	Workers   int
	Epochs    []EpochStats
	Curve     []CurvePoint
	// FinalLoss is the last test loss; FinalAccuracy likewise.
	FinalLoss     float64
	FinalAccuracy float64

	// Worker-side robustness totals, reported at end of run (nonzero only
	// under Config.RoundDeadline).
	WorkerTimeouts      int64 // broadcast waits that expired on workers
	WorkerSkippedSteps  int64 // optimizer steps workers skipped
	WorkerCorruptFrames int64 // frames workers could not parse or decode
	LostReports         int   // end-of-run reports that never arrived
	WorkerFailures      int   // workers that exited with an error

	// Topology is the gather topology the run used (Config.Topology).
	Topology string
	// LevelMergeNs breaks worker merge time down by tree level (index 0 is
	// the driver's direct children, deeper levels follow). Ring runs report
	// one level. Empty for star runs, where nothing merges.
	LevelMergeNs []int64
	// WorkerAggBytes[w] is the bytes worker w received over its
	// aggregation links (tree child uplinks, ring in-edge) across the run —
	// the per-link cost hierarchical gather adds to the workers. Nil for
	// star runs.
	WorkerAggBytes []int64

	// SketchError is the continuously measured recovery error of the
	// broadcast aggregates (exact vs. decoded, every round). Non-nil only
	// when Config.Metrics enabled the measurement.
	SketchError *obs.ErrorSummary

	// Drained reports that the run stopped early at a round boundary
	// because Config.Drain fired; CompletedRounds is the global round
	// counter actually reached (== total rounds for an undrained run), the
	// value a resume checkpoint carries.
	Drained         bool
	CompletedRounds int
}

// AvgEpochSimTime returns the mean simulated epoch time.
func (r *Result) AvgEpochSimTime() time.Duration {
	if len(r.Epochs) == 0 {
		return 0
	}
	var total time.Duration
	for _, e := range r.Epochs {
		total += e.SimTime
	}
	return total / time.Duration(len(r.Epochs))
}

// AvgUpBytesPerRound returns the mean worker→driver bytes per round, the
// paper's "message size".
func (r *Result) AvgUpBytesPerRound() float64 {
	var bytes int64
	rounds := 0
	for _, e := range r.Epochs {
		bytes += e.UpBytes
		rounds += e.Rounds
	}
	if rounds == 0 {
		return 0
	}
	return float64(bytes) / float64(rounds)
}

// AvgDownBytesPerRound returns the mean driver→worker broadcast bytes per
// round (per worker) — the aggregated-gradient message size.
func (r *Result) AvgDownBytesPerRound() float64 {
	var bytes int64
	rounds := 0
	for _, e := range r.Epochs {
		bytes += e.DownBytes
		rounds += e.Rounds
	}
	if rounds == 0 {
		return 0
	}
	return float64(bytes) / float64(rounds)
}

func (c *Config) fill() error {
	if c.Trainable == nil {
		if c.Model == nil {
			return errors.New("trainer: Model or Trainable is required")
		}
		c.Trainable = model.Wrap(c.Model)
	}
	if c.CodecFactory != nil {
		c.Codec = c.CodecFactory()
	}
	if c.Codec == nil {
		c.Codec = &codec.Raw{}
	}
	if c.Optimizer == nil {
		c.Optimizer = func(dim uint64) optim.Optimizer { return optim.NewAdam(0.1, dim) }
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.BatchFraction <= 0 || c.BatchFraction > 1 {
		c.BatchFraction = 0.1
	}
	if c.Epochs < 1 {
		c.Epochs = 1
	}
	if (c.Network == cluster.NetworkModel{}) {
		c.Network = cluster.LabCluster()
	}
	if c.ComputeScale <= 0 {
		c.ComputeScale = 1
	}
	if c.RoundDeadline > 0 {
		if c.MinGatherFraction <= 0 || c.MinGatherFraction > 1 {
			c.MinGatherFraction = 0.5
		}
		if c.MaxStrikes < 1 {
			c.MaxStrikes = 8
		}
	}
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = 1
	}
	c.decodeSlots = make(chan struct{}, runtime.GOMAXPROCS(0))
	switch c.Topology {
	case cluster.TopologyStar:
	case cluster.TopologyTree, cluster.TopologyRing:
		if c.UseTCP {
			return fmt.Errorf("trainer: topology %s requires the in-memory transport (UseTCP wires star links only)", c.Topology)
		}
		if _, ok := c.Codec.(codec.Merger); !ok {
			// No decode/re-encode fallback: stateful codecs (ErrorFeedback)
			// mutate sender residual on Encode, so a silent fallback would
			// corrupt training, not just slow it down.
			return fmt.Errorf("trainer: topology %s requires a mergeable codec (codec.Merger), %s is not", c.Topology, c.Codec.Name())
		}
		if c.Workers > math.MaxUint16 {
			// The frameAgg prefix carries the gradient count and the ring
			// chunk index as uint16; more workers would truncate silently.
			return fmt.Errorf("trainer: topology %s supports at most %d workers, got %d", c.Topology, math.MaxUint16, c.Workers)
		}
	default:
		return fmt.Errorf("trainer: unknown topology %d", int(c.Topology))
	}
	return c.Network.Validate()
}

// tolerant reports whether degraded rounds are enabled (versus the strict
// fail-stop protocol).
func (c *Config) tolerant() bool { return c.RoundDeadline > 0 }

// workerReport carries a worker's accumulated timings and robustness
// counters to the driver.
type workerReport struct {
	computeNs int64
	encodeNs  int64
	decodeNs  int64
	lossSum   float64
	rounds    int64

	timeouts     int64 // broadcast waits that expired
	corrupt      int64 // frames that failed envelope parse or decode
	skippedSteps int64 // optimizer steps skipped (missed or undecodable aggregates)

	// Hierarchical-gather accounting (zero under star).
	mergeNs  int64 // CPU spent in codec.MergeInto
	merges   int64 // successful wire-to-wire merges performed
	aggBytes int64 // bytes received over aggregation links (children, ring-in)
}

const workerReportLen = 88

func (w workerReport) marshal() []byte {
	out := make([]byte, 0, workerReportLen)
	out = binary.LittleEndian.AppendUint64(out, uint64(w.computeNs))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.encodeNs))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.decodeNs))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w.lossSum))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.rounds))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.timeouts))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.corrupt))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.skippedSteps))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.mergeNs))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.merges))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.aggBytes))
	return out
}

func parseWorkerReport(data []byte) (workerReport, error) {
	if len(data) != workerReportLen {
		return workerReport{}, fmt.Errorf("trainer: bad report size %d", len(data))
	}
	return workerReport{
		computeNs:    int64(binary.LittleEndian.Uint64(data[0:])),
		encodeNs:     int64(binary.LittleEndian.Uint64(data[8:])),
		decodeNs:     int64(binary.LittleEndian.Uint64(data[16:])),
		lossSum:      math.Float64frombits(binary.LittleEndian.Uint64(data[24:])),
		rounds:       int64(binary.LittleEndian.Uint64(data[32:])),
		timeouts:     int64(binary.LittleEndian.Uint64(data[40:])),
		corrupt:      int64(binary.LittleEndian.Uint64(data[48:])),
		skippedSteps: int64(binary.LittleEndian.Uint64(data[56:])),
		mergeNs:      int64(binary.LittleEndian.Uint64(data[64:])),
		merges:       int64(binary.LittleEndian.Uint64(data[72:])),
		aggBytes:     int64(binary.LittleEndian.Uint64(data[80:])),
	}, nil
}

// Run executes the configured training and returns per-epoch statistics.
func Run(cfg Config, train, test *dataset.Dataset) (*Result, error) {
	return RunContext(context.Background(), cfg, train, test)
}

// drainRequested polls the drain channel without blocking. A closed
// channel (the intended trigger) reads ready forever.
func drainRequested(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// orBackground is the nil-ctx guard every run loop opens with.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// rootCause is deferred by every run loop: whatever error surfaced first (a
// closed link, a failed decode, a lost quorum), cancellation is the root
// cause once ctx is done; report it as such so callers can errors.Is the
// context error.
func rootCause(ctx context.Context, res **Result, err *error) {
	if *err != nil && ctx.Err() != nil {
		*res = nil
		*err = fmt.Errorf("trainer: run cancelled: %w", ctx.Err())
	}
}

// runPlan is what every run loop derives from its Config and training set
// before the first round: the shards, the batch geometry and the resume
// point.
type runPlan struct {
	shards         []*dataset.Dataset
	localBatch     int
	roundsPerEpoch int
	totalRounds    int
	pDim           uint64 // parameter dimension; may exceed the feature dimension
	startRound     int    // cfg.Resume.Rounds, or 0 for a fresh run
}

// planRun fills cfg's defaults and derives the run's plan. A cfg.Resume that
// does not belong to this configuration is an error here, before any party
// starts: every worker must fast-forward its batcher to the same round.
func planRun(cfg *Config, train *dataset.Dataset) (*runPlan, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if train.N() == 0 {
		return nil, errors.New("trainer: empty training set")
	}
	p := &runPlan{shards: train.Shard(cfg.Workers), pDim: cfg.Trainable.ParamDim(train.Dim)}
	globalBatch := max(int(cfg.BatchFraction*float64(train.N())), cfg.Workers)
	p.localBatch = max(globalBatch/cfg.Workers, 1)
	p.roundsPerEpoch = max((p.shards[0].N()+p.localBatch-1)/p.localBatch, 1)
	p.totalRounds = p.roundsPerEpoch * cfg.Epochs
	if cfg.Resume != nil {
		if err := validateResume(cfg, cfg.Resume, p.pDim, p.roundsPerEpoch, p.totalRounds); err != nil {
			return nil, err
		}
		p.startRound = cfg.Resume.Rounds
	}
	return p, nil
}

// planEpochRun is planRun for the serial simulations (arch is "PS" or
// "SSP"). They run the star protocol only — PS already shards aggregation
// by key range and SSP workers sit at different round tags, so neither has a
// synchronized gather to merge across — and they checkpoint, drain and
// resume at epoch granularity, so a mid-epoch checkpoint is rejected. It
// returns the epoch to start at.
func planEpochRun(cfg *Config, train *dataset.Dataset, arch string) (*runPlan, int, error) {
	p, err := planRun(cfg, train)
	if err != nil {
		return nil, 0, err
	}
	if cfg.Topology != cluster.TopologyStar {
		return nil, 0, fmt.Errorf("trainer: topology %q requires the driver architecture (%s runs are star)", cfg.Topology, arch)
	}
	if p.startRound%p.roundsPerEpoch != 0 {
		return nil, 0, fmt.Errorf("trainer: resume: %s topology needs an epoch-boundary checkpoint, got round %d (%d rounds/epoch)",
			arch, p.startRound, p.roundsPerEpoch)
	}
	return p, p.startRound / p.roundsPerEpoch, nil
}

// batcher returns worker w's deterministic batcher, fast-forwarded past the
// rounds a resumed run already executed: the shuffle sequence depends only
// on the seed, so replaying the draws (without computing gradients) puts the
// batch stream exactly where the interrupted run left it.
func (p *runPlan) batcher(cfg *Config, w int) *dataset.Batcher {
	b := dataset.NewBatcher(p.shards[w], p.localBatch, cfg.Seed+int64(w)*7919)
	var buf []*dataset.Instance
	for r := 0; r < p.startRound; r++ {
		buf = b.Next(buf)
	}
	return b
}

// checkpoint hands OnCheckpoint a snapshot when one is due after `rounds`
// completed rounds: at every CheckpointEvery-th epoch boundary, and
// unconditionally when a drain stops the run here — that final snapshot is
// what lets the job resume instead of restarting.
func (p *runPlan) checkpoint(cfg *Config, rounds int, stopping bool, theta []float64, opt optim.Optimizer) error {
	due := rounds%p.roundsPerEpoch == 0 && (rounds/p.roundsPerEpoch)%cfg.CheckpointEvery == 0
	if cfg.OnCheckpoint == nil || !(stopping || due) {
		return nil
	}
	if err := cfg.OnCheckpoint(captureCheckpoint(cfg, rounds, p.roundsPerEpoch, theta, opt)); err != nil {
		return fmt.Errorf("trainer: checkpoint: %w", err)
	}
	return nil
}

// endEpoch closes an epoch of a PS or SSP run, `done` epochs in: it records
// the progress, honors a pending drain request (unless the run is finishing
// anyway) and checkpoints. It reports whether the run should stop.
func (p *runPlan) endEpoch(cfg *Config, res *Result, done int, theta []float64, opt optim.Optimizer) (stop bool, err error) {
	res.CompletedRounds = done * p.roundsPerEpoch
	if drainRequested(cfg.Drain) && done < cfg.Epochs {
		stop, res.Drained = true, true
	}
	return stop, p.checkpoint(cfg, res.CompletedRounds, stop, theta, opt)
}

// partyCodec returns the codec one more party (a worker, a PS server)
// encodes and decodes with: a fresh CodecFactory instance when the factory
// is set — stateful codecs need per-sender instances — else the shared one.
func (c *Config) partyCodec() codec.Codec {
	if c.CodecFactory != nil {
		return c.CodecFactory()
	}
	return c.Codec
}

func newResult(cfg *Config) *Result {
	return &Result{
		CodecName: cfg.Codec.Name(),
		ModelName: cfg.Trainable.Name(),
		Workers:   cfg.Workers,
	}
}

// finish sets the run's final loss and accuracy: the last epoch's, or, for
// a resume of an already complete run (zero rounds executed, no epochs
// recorded), a direct evaluation.
func (r *Result) finish(cfg *Config, theta []float64, test *dataset.Dataset) {
	if n := len(r.Epochs); n > 0 {
		r.FinalLoss, r.FinalAccuracy = r.Epochs[n-1].TestLoss, r.Epochs[n-1].Accuracy
		return
	}
	r.FinalLoss, r.FinalAccuracy = cfg.Trainable.Evaluate(theta, test)
}

// RunContext is Run bounded by a context: when ctx is cancelled, every
// blocking receive on the driver and every worker unblocks (the driver's
// watcher closes all links), the run stops within at most one
// RoundDeadline plus the round in flight, and the returned error wraps
// ctx.Err(). Cancellation is a hard stop — for a graceful one that
// checkpoints and collects worker reports, use Config.Drain.
func RunContext(ctx context.Context, cfg Config, train, test *dataset.Dataset) (res *Result, err error) {
	ctx = orBackground(ctx)
	defer rootCause(ctx, &res, &err)
	plan, err := planRun(&cfg, train)
	if err != nil {
		return nil, err
	}
	roundsPerEpoch, totalRounds, pDim := plan.roundsPerEpoch, plan.totalRounds, plan.pDim

	// Wire the links. wrap applies the (optional) fault-injection layer and
	// the traffic counter to the driver's end of worker w's link. Each
	// link's chaos schedule derives from Chaos.Seed and the worker index so
	// a run's fault pattern is reproducible end to end. All links share one
	// ConnMetrics set, so the registry's cluster.* counters aggregate the
	// run's whole driver-side traffic.
	connMet := cluster.NewConnMetrics(cfg.Metrics)
	// wrap instruments one receiving end: seedIdx picks the link's
	// deterministic chaos schedule (aggregation links use indexes past the
	// worker range so every link faults independently but reproducibly),
	// and outageFor names the worker whose ChaosOutage window applies to
	// this link (negative: none). Under a tree topology, worker w≥2's
	// outage moves from its driver link to its tree uplink: an interior
	// node dropping out should degrade its subtree's gather while its
	// broadcasts keep flowing — per-subtree degradation, not whole-run.
	outageOnDriverLink := func(w int) int {
		if cfg.Topology == cluster.TopologyTree && w >= 2 {
			return -1
		}
		return w
	}
	wrap := func(seedIdx int, inner cluster.Conn, outageFor int) *cluster.CountingConn {
		if cfg.Chaos != nil {
			spec := *cfg.Chaos
			spec.Seed = cfg.Chaos.Seed + int64(seedIdx)*1_000_003
			if outageFor >= 0 {
				spec.Outage = cfg.ChaosOutage[outageFor]
			} else {
				spec.Outage = cluster.OutageWindow{}
			}
			inner = cluster.NewChaos(inner, spec)
		}
		return cluster.NewCountingObserved(inner, connMet)
	}
	driverSide := make([]*cluster.CountingConn, cfg.Workers)
	workerSide := make([]cluster.Conn, cfg.Workers)
	if cfg.UseTCP {
		l, err := cluster.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		accepted := make(chan cluster.Conn, cfg.Workers)
		errs := make(chan error, 1)
		go func() {
			// Closing the channel (not just returning) lets the cleanup path
			// below distinguish "no more conns are coming" from "one is still
			// in flight", so it never leaks an accepted conn.
			defer close(accepted)
			for i := 0; i < cfg.Workers; i++ {
				c, err := l.Accept()
				if err != nil {
					errs <- err
					return
				}
				accepted <- c
			}
		}()
		// cleanup tears down a half-built topology: closing the listener
		// unblocks the accept goroutine, whose channel close bounds the
		// drain loop. Without this, a mid-setup dial error leaked every
		// already-dialed conn, every accepted-but-uncollected conn, and the
		// accept goroutine itself.
		cleanup := func() {
			_ = l.Close()
			for _, c := range workerSide {
				if c != nil {
					_ = c.Close()
				}
			}
			for _, c := range driverSide {
				if c != nil {
					_ = c.Close()
				}
			}
			for c := range accepted {
				_ = c.Close()
			}
		}
		for w := 0; w < cfg.Workers; w++ {
			c, err := cluster.DialObserved(l.Addr(), cfg.Metrics.Counter("cluster.dial_retries"))
			if err != nil {
				cleanup()
				return nil, err
			}
			workerSide[w] = c
		}
		for w := 0; w < cfg.Workers; w++ {
			c, ok := <-accepted
			if !ok {
				err := <-errs
				cleanup()
				return nil, err
			}
			// Note: accept order decides which chaos spec lands on which
			// link, so chaos schedules are reproducible per link but the
			// link↔worker pairing is not pinned over TCP; the in-memory
			// transport pins both.
			driverSide[w] = wrap(w, c, w)
		}
	} else {
		for w := 0; w < cfg.Workers; w++ {
			d, c := cluster.Pair(2)
			driverSide[w] = wrap(w, d, outageOnDriverLink(w))
			workerSide[w] = c
		}
	}
	// Non-star topologies add worker↔worker aggregation links on top of the
	// star driver links (which keep carrying broadcasts, reports, and
	// control frames). Their chaos seeds are offset past the worker range so
	// every link gets a distinct, reproducible fault schedule.
	links, auxConns := buildAggLinks(&cfg, wrap, pDim)
	defer func() {
		for _, c := range auxConns {
			_ = c.Close()
		}
		for _, c := range driverSide {
			_ = c.Close()
		}
	}()

	// Cancellation watcher: closing every driver-side link is what makes
	// ctx.Done() reach the blocking receives — the memory transport closes
	// the whole pair and TCP sends a FIN, so driver gathers and worker
	// waits alike fail immediately instead of running out their deadlines.
	// The watcher itself joins through watchDone before Run returns.
	if ctx.Done() != nil {
		runDone := make(chan struct{})
		watchDone := make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-ctx.Done():
				// Aggregation links close too: a strict-mode tree or ring
				// worker blocked on a child or ring receive has no deadline,
				// so only a closed link unblocks it.
				for _, c := range auxConns {
					_ = c.Close()
				}
				for _, c := range driverSide {
					_ = c.Close()
				}
			case <-runDone:
			}
		}()
		defer func() { close(runDone); <-watchDone }()
	}

	// Launch workers.
	workerErrs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wcfg := cfg
		wcfg.Codec = cfg.partyCodec()
		go func(w int, wcfg Config) {
			workerErrs <- runWorker(wcfg, plan, w, workerSide[w], &links[w])
		}(w, wcfg)
	}

	theta, opt, err := newReplica(&cfg, pDim)
	if err != nil {
		return nil, err
	}
	acc := gradient.NewAccumulator(pDim)

	res = newResult(&cfg)
	res.Topology = cfg.Topology.String()
	if cfg.Topology != cluster.TopologyStar {
		res.WorkerAggBytes = make([]int64, cfg.Workers)
	}
	var cumSimSeconds float64
	var prevUp, prevDown int64
	driverCodecTime := make([]time.Duration, 0, cfg.Epochs)
	tm := newTrainerMetrics(cfg.Metrics)
	var errAcc errAccum
	// strikes[w] counts worker w's consecutive missed rounds (tolerant mode
	// only); any round with its gradient present resets it.
	strikes := make([]int, cfg.Workers)
	// decodeReuse[w] is worker w's persistent decode target (see
	// gatherRound); aggScratch is the driver replica's. Allocated once, so
	// every round after the first decodes into warm buffers.
	decodeReuse := make([]gradient.Sparse, cfg.Workers)
	var aggScratch gradient.Sparse
	bcast := newBroadcaster(cfg.Workers)
	var memBefore runtime.MemStats
	if cfg.Metrics != nil {
		runtime.ReadMemStats(&memBefore)
	}

	// The epoch loop is a flat walk of the global round counter so a
	// resumed run can enter mid-epoch and a drain can leave mid-epoch: the
	// first and last epoch entries then cover only the rounds actually
	// executed (EpochStats.Rounds says how many).
	globalRound := plan.startRound
	stopRequested := false
	for globalRound < totalRounds && !stopRequested {
		epoch := globalRound / roundsPerEpoch
		epochEnd := (epoch + 1) * roundsPerEpoch
		var es EpochStats
		es.Epoch = epoch
		epochStart := time.Now()
		spEpoch := cfg.Metrics.StartSpan("epoch")
		var driverDecode, driverEncode time.Duration

		for globalRound < epochEnd && !stopRequested {
			if err := ctx.Err(); err != nil {
				spEpoch.End()
				return nil, err
			}
			// Gather worker gradients. Receives and decodes run concurrently
			// across workers (Decode is stateless on every codec, including
			// ErrorFeedback, whose residual lives on the encode side); the
			// accumulator adds stay sequential in worker order so float
			// summation is deterministic. DecodeTime sums the per-goroutine
			// decode durations rather than the gather's wall time.
			tGather := time.Now()
			if err := gatherRound(cfg, globalRound, driverSide, strikes, decodeReuse, acc, &es, &driverDecode); err != nil {
				return nil, err
			}
			agg := acc.Sum()
			gatherDur := time.Since(tGather)
			es.GatherTime += gatherDur
			tm.gatherNs.Observe(gatherDur.Nanoseconds())

			// Broadcast the aggregate, round-tagged. Every worker gets the
			// broadcast — including ones that just missed the round — because
			// the round tag is how a lagging worker discovers where the
			// driver is and rejoins. In tolerant mode a dead link must not
			// kill the round (the strike ledger handles persistent absence).
			tBcast := time.Now()
			t0 := tBcast
			msg, err := cfg.Codec.Encode(agg)
			driverEncode += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("trainer: encode aggregate: %w", err)
			}
			if err := bcast.broadcast(driverSide, globalRound, msg, cfg.tolerant()); err != nil {
				return nil, err
			}

			// The driver replica applies the same decoded update the
			// workers will see, keeping every replica identical.
			t0 = time.Now()
			applied, err := codec.DecodeReuse(cfg.Codec, msg, &aggScratch)
			driverDecode += time.Since(t0)
			if err != nil {
				return nil, err
			}
			if err := opt.Step(theta, applied); err != nil {
				return nil, err
			}
			es.RawDownBytes += rawWireBytes(agg)
			bcastDur := time.Since(tBcast)
			es.BroadcastTime += bcastDur
			tm.broadcastNs.Observe(bcastDur.Nanoseconds())
			if cfg.Metrics != nil {
				// The decoded broadcast vs. the exact aggregate is the
				// approximation error every replica actually applies. It is
				// an instrument, so it runs once the broadcast's clock has
				// stopped; agg and applied stay valid until the next gather.
				errAcc.observe(agg, applied)
			}

			globalRound++
			es.Rounds++
			// Drain is checked once the round in flight has fully closed
			// (its broadcast is out and applied), so the checkpoint below
			// lands exactly on a round boundary.
			if drainRequested(cfg.Drain) {
				stopRequested = true
			}
		}

		// Epoch boundary: collect traffic deltas.
		var up, down int64
		for _, c := range driverSide {
			s := c.Stats()
			up += s.BytesRecv
			down += s.BytesSent
		}
		es.UpBytes = up - prevUp
		es.DownBytes = (down - prevDown) / int64(cfg.Workers)
		prevUp, prevDown = up, down
		spEpoch.End()
		es.WallTime = time.Since(epochStart)
		es.EncodeTime = driverEncode
		es.DecodeTime = driverDecode
		driverCodecTime = append(driverCodecTime, driverEncode+driverDecode)
		tm.foldEpoch(&es)

		// Evaluation (excluded from epoch timing, as the paper excludes
		// non-training phases).
		es.TestLoss, es.Accuracy = cfg.Trainable.Evaluate(theta, test)
		res.Epochs = append(res.Epochs, es)

		if err := plan.checkpoint(&cfg, globalRound, stopRequested, theta, opt); err != nil {
			return nil, err
		}
	}
	res.CompletedRounds = globalRound

	// A drain that stopped short of the full run tells every worker to
	// stop through a stop frame: each worker finishes its in-flight step,
	// files its end-of-run report, and exits. Send errors are deliberately
	// ignored — a dead link's worker is past reaching, and the report
	// collection below accounts for it.
	if stopRequested && globalRound < totalRounds {
		res.Drained = true
		stopFrame := appendFrame(make([]byte, 0, frameHeaderLen), frameStop, globalRound, nil)
		for w := range driverSide {
			_ = driverSide[w].Send(stopFrame)
		}
	}
	if cfg.Metrics != nil {
		// Process-wide allocation count across the training loop (all
		// parties — the workers are goroutines here). The report surfaces it
		// so allocation regressions on the steady-state path show up in run
		// snapshots, not just in microbenchmarks.
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		tm.heapAllocs.Add(int64(memAfter.Mallocs - memBefore.Mallocs))
	}

	// Collect worker reports: one final frameReport per worker. In tolerant
	// mode each collection is bounded by the round deadline and a lost
	// report degrades the stats instead of failing the run; stale gradient
	// frames still queued from degraded rounds are skimmed off first.
	var totalCompute, totalWorkerEncode, totalWorkerDecode, totalMerge time.Duration
	var totalMerges int64
	var lossSum float64
	var lossRounds int64
	for w := 0; w < cfg.Workers; w++ {
		rep, err := collectReport(cfg, driverSide[w], w, totalRounds, res.Drained)
		if err != nil {
			if !cfg.tolerant() && !res.Drained {
				return nil, err
			}
			res.LostReports++
			continue
		}
		totalCompute += time.Duration(rep.computeNs)
		totalWorkerEncode += time.Duration(rep.encodeNs)
		totalWorkerDecode += time.Duration(rep.decodeNs)
		lossSum += rep.lossSum
		lossRounds += rep.rounds
		res.WorkerTimeouts += rep.timeouts
		res.WorkerCorruptFrames += rep.corrupt
		res.WorkerSkippedSteps += rep.skippedSteps
		totalMerge += time.Duration(rep.mergeNs)
		totalMerges += rep.merges
		if rep.merges > 0 || rep.aggBytes > 0 {
			if lvl := aggLevel(cfg.Topology, w); lvl >= 0 {
				for len(res.LevelMergeNs) <= lvl {
					res.LevelMergeNs = append(res.LevelMergeNs, 0)
				}
				res.LevelMergeNs[lvl] += rep.mergeNs
			}
		}
		if res.WorkerAggBytes != nil {
			res.WorkerAggBytes[w] = rep.aggBytes
		}
	}
	for w := 0; w < cfg.Workers; w++ {
		if err := <-workerErrs; err != nil {
			if !cfg.tolerant() && !res.Drained {
				return nil, err
			}
			res.WorkerFailures++
		}
	}

	// Distribute worker-side totals uniformly across epochs and finalize
	// simulated times. A resume of an already complete run executes zero
	// rounds and records no epochs; its final loss is evaluated directly.
	nEpochs := len(res.Epochs)
	meanLoss := 0.0
	if lossRounds > 0 {
		meanLoss = lossSum / float64(lossRounds)
	}
	for i := range res.Epochs {
		es := &res.Epochs[i]
		es.ComputeTime = totalCompute / time.Duration(nEpochs)
		es.EncodeTime += totalWorkerEncode / time.Duration(nEpochs)
		es.DecodeTime += totalWorkerDecode / time.Duration(nEpochs)
		es.MergeTime = totalMerge / time.Duration(nEpochs)
		es.Merges = totalMerges / int64(nEpochs)
		if i == 0 {
			// The first epoch absorbs the integer-division remainder so the
			// per-epoch counts still sum to the run total.
			es.Merges += totalMerges % int64(nEpochs)
		}
		es.TrainLoss = meanLoss

		// Simulated epoch time: workers run in parallel (their compute and
		// codec work divide by W); the driver's codec work is serial; the
		// network round time comes from the cost model with the measured
		// per-round traffic.
		scaledCompute := time.Duration(float64(es.ComputeTime) * cfg.ComputeScale)
		workerTime := (scaledCompute +
			totalWorkerEncode/time.Duration(nEpochs) +
			totalWorkerDecode/time.Duration(nEpochs)) / time.Duration(cfg.Workers)
		perRoundUp := es.UpBytes / int64(es.Rounds)
		perRoundDown := es.DownBytes / int64(es.Rounds)
		network := cfg.Network.RoundTime(perRoundUp, perRoundDown, cfg.Workers) * time.Duration(es.Rounds)
		es.SimTime = workerTime + driverCodecTime[i] + network

		cumSimSeconds += es.SimTime.Seconds()
		res.Curve = append(res.Curve, CurvePoint{Seconds: cumSimSeconds, Loss: es.TestLoss})
	}
	res.finish(&cfg, theta, test)
	res.SketchError = errAcc.summary()
	return res, nil
}

// frameWant names the one frame a receive is waiting for.
type frameWant struct {
	from  int  // sending worker, for error attribution
	kind  byte // frameGrad, frameAgg or frameReport
	round int
	chunk int // frameAgg key-range index (0 outside a ring reduce)
}

// frameRecv is the outcome of one recvFrame call: the wanted frame, or a
// miss, and what the wait saw on the way.
type frameRecv struct {
	payload  []byte           // codec message or report body; aliases the transport buffer, nil on a miss
	count    int              // worker gradients payload sums (the frameAgg count; 1 for other kinds)
	g        *gradient.Sparse // payload decoded into the caller's dst, nil without one or on a miss
	decodeNs int64
	bytes    int64 // raw frame bytes received, discarded frames included
	timeouts int
	corrupt  int
	stale    int
	err      error // strict mode only: the anomaly that ended the wait
}

// recvFrame is the one frame-receive loop: the driver's gather, the tree
// and ring workers' aggregation-link receives and the end-of-run report
// collection all wait through it. It returns the first frame on conn that
// matches want, checksum-valid, with an aggregate count within
// [1, cfg.Workers] and, when dst is given, decodable into it.
//
// budget == 0 is strict mode: the receive blocks until a frame arrives and
// any anomaly (dead link, bad envelope, wrong kind, round or chunk,
// out-of-range count, failed decode) is the returned err. budget > 0 is
// tolerant mode: anomalous frames are counted (corrupt: envelope, count,
// report size or decode; stale: a valid frame for another kind, round or
// chunk; collectReport drops both tallies, frames queued ahead of a report
// are expected), discarded,
// and the wait continues on what is left of the budget. An expired budget
// counts one timeout and is a miss; a dead link is a miss and counts nothing
// (the strike ledger, not the timeout tally, tracks persistent absence).
//
// A non-nil dst is the caller's reusable decode target: the payload is
// decoded into it (timedDecode) and g aliases it until the next receive, so
// the steady-state gather allocates no gradients.
func recvFrame(cfg *Config, conn cluster.Conn, want frameWant, budget time.Duration, dst *gradient.Sparse) frameRecv {
	var out frameRecv
	strict := budget <= 0
	var deadline time.Time
	if !strict {
		deadline = time.Now().Add(budget)
	}
	for {
		var wait time.Duration
		if !strict {
			if wait = time.Until(deadline); wait <= 0 {
				out.timeouts++
				return out
			}
		}
		msg, err := cluster.RecvWithTimeout(conn, wait)
		if errors.Is(err, cluster.ErrTimeout) {
			out.timeouts++
			return out
		}
		if err != nil {
			if strict {
				out.err = fmt.Errorf("trainer: recv from worker %d: %w", want.from, err)
			}
			return out
		}
		out.bytes += int64(len(msg))
		kind, tag, payload, err := parseFrame(msg)
		count, chunk := 1, 0
		switch {
		case err != nil:
		case kind == frameAgg:
			count, chunk, payload, err = parseAggFrame(payload)
			if err == nil && count > cfg.Workers {
				err = fmt.Errorf("trainer: aggregate frame sums %d gradients, run has %d workers", count, cfg.Workers)
			}
		case kind == frameReport && len(payload) != workerReportLen:
			err = fmt.Errorf("trainer: bad report size %d", len(payload))
		}
		if err != nil {
			if strict {
				out.err = fmt.Errorf("trainer: frame from worker %d: %w", want.from, err)
				return out
			}
			out.corrupt++
			continue
		}
		if kind != want.kind || tag != want.round || chunk != want.chunk {
			if strict {
				out.err = fmt.Errorf("trainer: worker %d sent kind 0x%02x round %d chunk %d while kind 0x%02x round %d chunk %d was due",
					want.from, kind, tag, chunk, want.kind, want.round, want.chunk)
				return out
			}
			out.stale++
			continue
		}
		if dst != nil {
			g, ns, err := timedDecode(cfg, payload, dst)
			out.decodeNs += ns
			if err != nil {
				if strict {
					out.err = fmt.Errorf("trainer: decode from worker %d: %w", want.from, err)
					return out
				}
				out.corrupt++
				continue
			}
			out.g = g
		}
		out.payload, out.count = payload, count
		return out
	}
}

// timedDecode decodes payload into dst and returns the decode's wall
// duration in nanoseconds. The gather goroutines receive W-wide, but at
// most GOMAXPROCS of them decode at once: the clock starts only once a
// slot is held, so on a host with fewer cores than workers a decode is not
// billed for the time it spent descheduled behind its siblings. A Config
// that never went through fill (tests driving a gather directly) has no
// slots and decodes unbounded.
func timedDecode(cfg *Config, payload []byte, dst *gradient.Sparse) (*gradient.Sparse, int64, error) {
	if cfg.decodeSlots != nil {
		cfg.decodeSlots <- struct{}{}
	}
	t0 := time.Now()
	g, err := codec.DecodeReuse(cfg.Codec, payload, dst)
	ns := time.Since(t0).Nanoseconds()
	if cfg.decodeSlots != nil {
		<-cfg.decodeSlots
	}
	return g, ns, err
}

// gatherWant is the frame the driver's gather expects on driver link w.
func gatherWant(cfg *Config, w, round int) frameWant {
	switch cfg.Topology {
	case cluster.TopologyTree:
		return frameWant{w, frameAgg, round, 0}
	case cluster.TopologyRing:
		return frameWant{w, frameAgg, round, (w + 1) % cfg.Workers}
	}
	return frameWant{w, frameGrad, round, 0}
}

// gatherRound is the driver's gather for every topology: receive and decode
// one message per listened driver link for the given round, tally what the
// waits saw, check quorum, keep the strike ledger, and fold the arrivals
// into acc at weights that keep the aggregate the unbiased mean of the
// worker gradients that made it. cfg.Topology decides three things only:
//
//   - star listens on all W links for a frameGrad (a message of count 1);
//   - tree listens on the min(W, 2) root links for a frameAgg, chunk 0;
//   - ring listens on all W links for a frameAgg, link w delivering the
//     fully reduced chunk (w+1) mod W.
//
// and one of two weighting rules. Star and tree messages cover disjoint
// worker sets, so every message is weighted 1/total contributors and quorum
// and SkippedGrads count contributors (the sum rule). Ring messages cover
// disjoint key ranges, so each is weighted 1/its own count and quorum and
// SkippedGrads count arrived chunks (the chunk rule).
//
// With more than one link the receive+decode pairs run on one goroutine per
// link; a single link keeps the plain serial path. The decode meter sums
// the per-goroutine decode durations (timedDecode), not the gather's wall
// time. Accumulator adds always happen sequentially in link order, keeping
// the float summation (and thus training) deterministic. reuse[w] is link
// w's persistent decode target, so after warm-up the gather allocates
// nothing per round beyond the bookkeeping below.
//
// Strict mode (RoundDeadline == 0) requires every worker gradient and any
// fault aborts. Tolerant mode aggregates whatever arrived by the deadline
// and aborts only on quorum loss (fewer than ceil(MinGatherFraction·W)
// contributors or chunks) or when one link reaches MaxStrikes consecutive
// misses.
func gatherRound(cfg Config, round int, driverSide []*cluster.CountingConn, strikes []int, reuse []gradient.Sparse, acc *gradient.Accumulator, es *EpochStats, driverDecode *time.Duration) error {
	links, chunked := cfg.Workers, cfg.Topology == cluster.TopologyRing
	if cfg.Topology == cluster.TopologyTree {
		links = min(cfg.Workers, 2)
	}
	outs := make([]frameRecv, links)
	if links == 1 {
		outs[0] = recvFrame(&cfg, driverSide[0], gatherWant(&cfg, 0, round), cfg.RoundDeadline, &reuse[0])
	} else {
		var wg sync.WaitGroup
		wg.Add(links)
		for w := 0; w < links; w++ {
			// cfg travels as a goroutine argument (copied onto the new
			// goroutine's stack): captured, the >128-byte struct would be
			// moved to the heap by reference once per round.
			go func(w int, cfg Config) {
				defer wg.Done()
				outs[w] = recvFrame(&cfg, driverSide[w], gatherWant(&cfg, w, round), cfg.RoundDeadline, &reuse[w])
			}(w, cfg)
		}
		wg.Wait()
	}
	// total sums the contributors over the arrivals; partial marks a ring
	// chunk whose reduction missed workers.
	arrived, total, partial := 0, 0, false
	for w := range outs {
		o := &outs[w]
		*driverDecode += time.Duration(o.decodeNs)
		es.Timeouts += o.timeouts
		es.CorruptFrames += o.corrupt
		es.StaleFrames += o.stale
		if o.g == nil {
			continue
		}
		arrived++
		total += o.count
		es.RawUpBytes += rawWireBytes(o.g)
		es.DecodedBytes += int64(len(o.payload))
		if chunked && o.count != cfg.Workers {
			partial = true
		}
	}
	// have is what arrived in the weighting rule's quorum unit; complete
	// says no worker gradient is missing from any key range.
	have, unit := total, "gradients"
	if chunked {
		have, unit = arrived, "chunks"
	}
	complete := have == cfg.Workers && !partial
	if !cfg.tolerant() {
		for w := range outs {
			if outs[w].err != nil {
				return outs[w].err
			}
		}
		if !complete {
			return fmt.Errorf("trainer: strict %s gather: round %d did not sum all %d worker gradients (%d %s arrived)",
				cfg.Topology, round, cfg.Workers, have, unit)
		}
	}
	if have > cfg.Workers {
		// Two in-range tree counts can still sum past W. No link fault
		// explains that, so it aborts rather than skew the round's weights.
		return fmt.Errorf("trainer: round %d: %s gather summed %d gradients from %d workers", round, cfg.Topology, have, cfg.Workers)
	}
	if cfg.tolerant() {
		quorum := max(int(math.Ceil(cfg.MinGatherFraction*float64(cfg.Workers))), 1)
		if have < quorum {
			return fmt.Errorf("trainer: round %d: quorum lost, only %d/%d %s arrived (need %d)",
				round, have, cfg.Workers, unit, quorum)
		}
		for w := range outs {
			if outs[w].g != nil {
				strikes[w] = 0
				continue
			}
			strikes[w]++
			es.Strikes++
			if strikes[w] >= cfg.MaxStrikes {
				return fmt.Errorf("trainer: worker %d missed %d consecutive rounds (through round %d)",
					w, strikes[w], round)
			}
		}
		es.SkippedGrads += cfg.Workers - have
		if !complete {
			es.DegradedRounds++
		}
	}
	for w := range outs {
		o := &outs[w]
		if o.g == nil {
			continue
		}
		weight := 1.0 / float64(total)
		if chunked {
			weight = 1.0 / float64(o.count)
		}
		if err := acc.Add(o.g, weight); err != nil {
			return err
		}
	}
	return nil
}

// broadcastQueueCap bounds the per-worker backlog of broadcast frames kept
// after a transiently refused send. A link that stays dead (closed pair,
// poisoned TCP stream) keeps refusing, so the backlog never grows past the
// cap; a link that heals gets the whole backlog plus the current frame in
// one coalesced batch.
const broadcastQueueCap = 4

// broadcaster owns the driver's per-round fan-out buffers: one reusable
// frame buffer shared by every link, a flush scratch, and a small
// per-worker queue of frames whose send failed in tolerant mode. Sharing
// the frame buffer is safe because every transport finishes with the bytes
// before Send/SendBatch returns: memConn copies, TCP completes its
// vectored write, and the chaos wrapper copies before corrupting.
type broadcaster struct {
	frame   []byte     // current round's envelope+payload, rebuilt in place
	batch   [][]byte   // flush scratch: queued frames + the current one
	pending [][][]byte // pending[w]: copied frames worker w's link refused
}

func newBroadcaster(workers int) *broadcaster {
	return &broadcaster{pending: make([][][]byte, workers)}
}

// broadcast fans one round's encoded aggregate out to every worker through
// cluster.SendBatch, so each link costs one coalesced write (one syscall on
// TCP) regardless of how many frames are queued for it. In strict mode a
// send error aborts; in tolerant mode the frame is queued (bounded,
// dropping oldest) and retried with the next round's flush — a worker
// behind a healed link sees the missed rounds in order and either applies
// them or skips them as stale, exactly as it handles any other re-delivery.
func (b *broadcaster) broadcast(conns []*cluster.CountingConn, round int, payload []byte, tolerant bool) error {
	b.frame = appendFrame(b.frame[:0], frameGrad, round, payload)
	for w := range conns {
		b.batch = append(b.batch[:0], b.pending[w]...)
		b.batch = append(b.batch, b.frame)
		err := cluster.SendBatch(conns[w], b.batch)
		if err == nil {
			b.pending[w] = b.pending[w][:0]
			continue
		}
		if !tolerant {
			return fmt.Errorf("trainer: send to worker %d: %w", w, err)
		}
		// The shared frame buffer is rewritten next round, so the retained
		// copy must own its bytes. Partially delivered batches are retained
		// whole: re-delivered frames are skipped as stale duplicates.
		if len(b.pending[w]) >= broadcastQueueCap {
			n := copy(b.pending[w], b.pending[w][1:])
			b.pending[w] = b.pending[w][:n]
		}
		b.pending[w] = append(b.pending[w], append([]byte(nil), b.frame...))
	}
	return nil
}

// drainReportBudget bounds the per-worker report collection after a drain
// when no RoundDeadline is configured (strict mode would otherwise block
// forever on a worker that died between the stop frame and its report).
const drainReportBudget = 10 * time.Second

// collectReport receives worker w's end-of-run report through recvFrame,
// which skims off whatever is still queued ahead of it. In tolerant mode the
// whole collection is bounded by cfg.RoundDeadline; after a drain it is
// bounded even in strict mode, so the gradient the worker had in flight when
// the stop frame arrived is skimmed rather than treated as a protocol error.
func collectReport(cfg Config, conn cluster.Conn, w, totalRounds int, drained bool) (workerReport, error) {
	budget := cfg.RoundDeadline
	if budget <= 0 && drained {
		budget = drainReportBudget
	}
	r := recvFrame(&cfg, conn, frameWant{w, frameReport, totalRounds, 0}, budget, nil)
	if r.err != nil {
		return workerReport{}, r.err
	}
	if r.payload == nil {
		return workerReport{}, fmt.Errorf("trainer: report from worker %d: %w", w, cluster.ErrTimeout)
	}
	return parseWorkerReport(r.payload)
}

func runWorker(cfg Config, plan *runPlan, w int, conn cluster.Conn, links *workerLinks) error {
	defer func() { _ = conn.Close() }()
	// Closing the aggregation links on exit is what unblocks a strict-mode
	// peer still receiving on the shared pair.
	defer links.close()
	theta, opt, err := newReplica(&cfg, plan.pDim)
	if err != nil {
		return err
	}
	batcher := plan.batcher(&cfg, w)
	startRound, totalRounds := plan.startRound, plan.totalRounds
	var rep workerReport
	var buf []*dataset.Instance
	// sendBuf and aggScratch are the worker's reusable frame and decode
	// buffers: after warm-up the steady-state round neither allocates the
	// outbound envelope nor a fresh aggregate (every transport is done with
	// sendBuf when Send returns, and the decoded aggregate is consumed
	// within the round).
	var sendBuf []byte
	var aggScratch gradient.Sparse
	// misses counts consecutive broadcast waits that expired; it is the
	// worker-side liveness bound (the driver may legitimately go quiet for
	// a while during an outage on this link, but not forever).
	misses := 0
	for round := startRound; round < totalRounds; round++ {
		t0 := time.Now()
		buf = batcher.Next(buf)
		g, loss := cfg.Trainable.BatchGradient(theta, buf, cfg.Lambda)
		rep.computeNs += time.Since(t0).Nanoseconds()
		rep.lossSum += loss
		rep.rounds++

		switch links.topo {
		case cluster.TopologyTree:
			if err := treeGatherStep(cfg, links, conn, g, round, &rep); err != nil {
				return err
			}
		case cluster.TopologyRing:
			if err := ringReduceStep(cfg, links, conn, g, round, &rep); err != nil {
				return err
			}
		default:
			t0 = time.Now()
			msg, err := cfg.Codec.Encode(g)
			rep.encodeNs += time.Since(t0).Nanoseconds()
			if err != nil {
				return fmt.Errorf("trainer: worker encode: %w", err)
			}
			sendBuf = appendFrame(sendBuf[:0], frameGrad, round, msg)
			if err := conn.Send(sendBuf); err != nil {
				return fmt.Errorf("trainer: worker send: %w", err)
			}
		}

		// Wait for the aggregate. The worker never free-runs: it advances
		// only on a received broadcast, so every gradient it sends is fresh
		// (sent moments after the previous round closed) and a worker that
		// missed rounds resynchronizes the moment any newer aggregate
		// reaches it — the round tag tells it where the driver is. The wait
		// budget is twice the driver's deadline because a degraded gather
		// legitimately holds the broadcast back a full RoundDeadline; an
		// equal budget would expire moments before every such broadcast.
		var agg *gradient.Sparse
		for {
			down, err := cluster.RecvWithTimeout(conn, 2*cfg.RoundDeadline)
			if cfg.tolerant() && errors.Is(err, cluster.ErrTimeout) {
				rep.timeouts++
				misses++
				if misses >= cfg.MaxStrikes {
					return fmt.Errorf("trainer: worker lost contact with driver (%d broadcast waits expired)", misses)
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("trainer: worker recv: %w", err)
			}
			kind, tag, payload, perr := parseFrame(down)
			if perr != nil {
				if !cfg.tolerant() {
					return fmt.Errorf("trainer: worker frame: %w", perr)
				}
				rep.corrupt++
				continue
			}
			if kind == frameStop {
				// Drain notice: the driver stopped at a round boundary and
				// will not broadcast this round's aggregate. The gradient just
				// sent is skimmed driver-side; file the report and exit.
				return conn.Send(appendFrame(make([]byte, 0, frameHeaderLen+workerReportLen), frameReport, totalRounds, rep.marshal()))
			}
			if kind != frameGrad || tag != round {
				if !cfg.tolerant() {
					return fmt.Errorf("trainer: worker got kind 0x%02x round %d during round %d", kind, tag, round)
				}
				if kind != frameGrad || tag < round {
					continue // stale duplicate of an earlier broadcast
				}
				// The driver has moved on: broadcasts for rounds
				// [round, tag) never made it here. Fast-forward onto the
				// newest aggregate and rejoin the current round.
				rep.skippedSteps += int64(tag - round)
				round = tag
			}
			t0 = time.Now()
			agg, err = codec.DecodeReuse(cfg.Codec, payload, &aggScratch)
			rep.decodeNs += time.Since(t0).Nanoseconds()
			if err != nil {
				if !cfg.tolerant() {
					return fmt.Errorf("trainer: worker decode: %w", err)
				}
				// Undecodable aggregate: skip this step rather than apply junk.
				rep.corrupt++
				rep.skippedSteps++
				agg = nil
			}
			break
		}
		misses = 0
		if agg != nil {
			if err := opt.Step(theta, agg); err != nil {
				return err
			}
		}
	}
	return conn.Send(appendFrame(make([]byte, 0, frameHeaderLen+workerReportLen), frameReport, totalRounds, rep.marshal()))
}

// paramsInitializer is implemented by trainables (e.g. model.FM) whose
// parameter vector needs deterministic non-zero initialization.
type paramsInitializer interface {
	InitTheta(theta []float64)
}

// newParams allocates and initializes one replica's parameter vector.
func newParams(cfg *Config, pDim uint64) []float64 {
	theta := make([]float64, pDim)
	if init, ok := cfg.Trainable.(paramsInitializer); ok {
		init.InitTheta(theta)
	}
	return theta
}

// newReplica builds one replica's parameters and optimizer. The parameter
// space may exceed the feature space (factorization machines); every
// replica sizes and initializes its vector identically. On resume,
// parameters and optimizer state load from the checkpoint bit-exactly.
func newReplica(cfg *Config, pDim uint64) ([]float64, optim.Optimizer, error) {
	theta := newParams(cfg, pDim)
	opt := cfg.Optimizer(pDim)
	if cfg.Resume != nil {
		copy(theta, cfg.Resume.Theta)
		if err := restoreOptimizer(opt, cfg.Resume); err != nil {
			return nil, nil, err
		}
	}
	return theta, opt, nil
}
