// Package trainer implements the paper's distributed training loop: the
// dataset is sharded over W workers, each worker computes a mini-batch
// gradient on its shard, gradients travel (compressed by a pluggable codec)
// to the driver, the driver aggregates and broadcasts the aggregate back,
// and every replica applies the same optimizer step — the synchronous
// Spark-style topology of Section 4.1.
//
// The trainer runs the real message flow (every byte passes through the
// codec and a cluster.Conn) and meters compute, encode/decode time, and
// traffic per epoch. It reports what it measured and nothing else: what
// those meters would cost on the paper's clusters is priced outside the run
// loop (see DESIGN.md, "Substitutions").
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
	// Trainable is the model. Required; a generalized linear model enters
	// through model.Wrap.
	Trainable model.Trainable
	// CodecFactory builds the codec that compresses gradients in both
	// directions; nil means codec.Raw. It is called once per party: first
	// for the driver, then for workers 0…W−1 in index order, so a wrapper
	// can tell the parties apart by call order (the benchmark's per-party
	// codec meters do). No codec keeps state between encodes, so it may
	// return one shared instance every time.
	CodecFactory func() codec.Codec
	// Optimizer builds per-replica optimizers; nil means Adam with LR 0.1.
	Optimizer OptimizerFactory
	// Workers is the number of executors (the paper's W). Minimum 1.
	Workers int
	// Topology selects how worker gradients reach the driver on the gather
	// half of each round (broadcast always fans out over the direct driver
	// links). The zero value is cluster.TopologyStar: every worker sends to
	// the driver, which decodes all W messages. TopologyTree aggregates en
	// route via codec merging, so it requires that CodecFactory build a
	// codec.Merger, the in-memory transport (UseTCP only wires star links)
	// and at most 65535 workers. Both share one gather, one sum rule and one
	// fault arithmetic: the topology decides only which driver links the
	// gather listens on. A dead link or an undecodable frame is handled the
	// same way on each (see RoundDeadline).
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
	// UseTCP routes every message over loopback TCP instead of in-memory
	// channels. Slower, but exercises the real network stack.
	UseTCP bool

	// RoundDeadline bounds every receive in the training loop: the
	// driver's per-round gather, each worker's wait for the broadcast, and
	// the end-of-run report collection. When it is set, a timed-out or
	// undecodable gradient no longer aborts the run — the round proceeds
	// with the gradients that arrived (rescaled to stay unbiased), the
	// offender accrues a strike, and only 8 consecutive misses by one
	// worker (defaultMaxStrikes) or quorum loss (fewer than half the
	// workers, defaultMinGatherFraction) abort. On every topology and every
	// link, a frame that fails its checksum, its bounds or its decode, or
	// belongs to another round, is counted and discarded and the wait continues on what is
	// left of the deadline, so a good duplicate behind it is still
	// accepted; a dead link ends the wait at once as a miss and counts no
	// timeout. Zero keeps the strict fail-stop behavior: every receive
	// blocks indefinitely and any fault is fatal.
	RoundDeadline time.Duration

	// Drain, when non-nil, requests a graceful stop: once the channel is
	// closed (close it — a single send also works but only once), the
	// driver finishes the round in flight, broadcasts a stop frame so
	// every worker exits cleanly and files its report, takes a final
	// checkpoint through OnCheckpoint, and returns early with
	// Result.Drained set. The drain takes effect at round granularity.
	Drain <-chan struct{}
	// OnCheckpoint, when non-nil, receives a full replica-state snapshot
	// at every CheckpointEvery-th epoch boundary and once more when a
	// drain stops the run mid-epoch; returning an error aborts the run.
	// The checkpoint is borrowed until the hook returns: it is the
	// driver's own, refilled at every boundary, its Theta is the live
	// parameter vector and its OptState the optimizer's marshal buffer, so
	// the next round overwrites them. Serialize it inside the hook
	// (Checkpoint.AppendMarshal) or copy what you keep with
	// UnmarshalCheckpoint(cp.Marshal()).
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

	// codec is this party's CodecFactory instance: fill builds the
	// driver's, RunContext one per worker.
	codec codec.Codec

	// The fault knobs only tests set. minGatherFraction is the quorum and
	// maxStrikes the consecutive misses that abort (see RoundDeadline);
	// fill defaults values outside (0, 1] and below 1 to the constants
	// below. chaos, when non-nil, wraps every driver↔worker link in a
	// cluster.ChaosConn seeded from chaos.Seed and the link index, so a
	// run's fault pattern is reproducible; chaosOutage gives a worker's
	// link an outage window ([Start, End) in per-direction frame ordinals,
	// roughly a round range): a disconnect followed by a rejoin.
	minGatherFraction float64
	maxStrikes        int
	chaos             *cluster.ChaosSpec
	chaosOutage       map[int]cluster.OutageWindow

	// decodeSlots bounds the run's concurrently timed gather decodes at
	// GOMAXPROCS; fill makes it, timedDecode takes from it.
	decodeSlots chan struct{}
}

// The tolerant protocol's fixed fault thresholds (see Config.RoundDeadline):
// a round needs at least half the workers' gradients, and a worker that
// misses 8 consecutive rounds aborts the run.
const (
	defaultMinGatherFraction = 0.5
	defaultMaxStrikes        = 8
)

// EpochStats reports one epoch of a run.
type EpochStats struct {
	Epoch    int
	TestLoss float64 // unregularized test loss after the epoch
	Accuracy float64 // classification accuracy (0 for Linear)

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
	// excluded). Under star it tracks UpBytes minus envelopes; under tree it
	// is the measure of how much decode work hierarchical aggregation took
	// off the driver.
	DecodedBytes int64

	// Merges and MergeTime account the wire-to-wire message merges workers
	// performed on behalf of the driver (tree interior nodes). Like
	// ComputeTime they are end-of-run worker totals spread uniformly across
	// epochs. Always zero under star.
	Merges    int64
	MergeTime time.Duration

	ComputeTime time.Duration // summed worker gradient computation
	// EncodeTime and DecodeTime sum every party's per-call wall time in
	// the codec (driver and workers), not on-CPU time; the driver's gather
	// decodes are timed at most GOMAXPROCS at once (see timedDecode). The
	// workers' share is an end-of-run total spread uniformly across epochs,
	// like ComputeTime; the driver's share is measured epoch by epoch.
	EncodeTime time.Duration
	DecodeTime time.Duration
	// DriverCodecTime is the driver's share of EncodeTime + DecodeTime: the
	// codec work no other party's overlaps. The rest is spread over W
	// workers, which is the split a cost model needs and the two sums above
	// cannot give.
	DriverCodecTime time.Duration
	// GatherTime and BroadcastTime are driver-side wall clocks that
	// partition each round (gather+aggregate, then encode+send+apply), so
	// their sum never exceeds WallTime — unlike the summed-across-parties
	// meters above, which can.
	GatherTime    time.Duration
	BroadcastTime time.Duration

	// WallTime is the measured duration of the epoch's rounds on this machine.
	WallTime time.Duration

	// Robustness counters, nonzero only when Config.RoundDeadline enables
	// degraded rounds (see DESIGN.md, "Fault tolerance"). All are
	// driver-side observations.
	Timeouts       int // receive deadlines that expired during gather (a dead link is a miss, not a timeout)
	SkippedGrads   int // worker gradients absent from a round's aggregate; never negative
	CorruptFrames  int // frames that failed envelope parse, the aggregate-count bound or codec decode
	StaleFrames    int // late or duplicated frames from an earlier round
	Strikes        int // consecutive-miss strikes accrued by workers
	DegradedRounds int // rounds aggregated from fewer than W gradients
}

// Result aggregates a full run.
type Result struct {
	CodecName string
	ModelName string
	Workers   int
	Epochs    []EpochStats
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
	// the driver's direct children, deeper levels follow). Empty for star
	// runs, where nothing merges.
	LevelMergeNs []int64
	// WorkerAggBytes[w] is the bytes worker w received over its tree child
	// uplinks across the run — the per-link cost hierarchical gather adds to
	// the workers. Nil for star runs.
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

// AvgUpBytesPerRound returns the mean worker→driver bytes per round, the
// paper's "message size".
func (r *Result) AvgUpBytesPerRound() float64 {
	return r.avgPerRound(func(e *EpochStats) int64 { return e.UpBytes })
}

// AvgDownBytesPerRound returns the mean driver→worker broadcast bytes per
// round (per worker) — the aggregated-gradient message size.
func (r *Result) AvgDownBytesPerRound() float64 {
	return r.avgPerRound(func(e *EpochStats) int64 { return e.DownBytes })
}

// avgPerRound is the run's mean per round of the epoch counter field picks.
func (r *Result) avgPerRound(field func(*EpochStats) int64) float64 {
	var bytes int64
	rounds := 0
	for i := range r.Epochs {
		bytes += field(&r.Epochs[i])
		rounds += r.Epochs[i].Rounds
	}
	if rounds == 0 {
		return 0
	}
	return float64(bytes) / float64(rounds)
}

func (c *Config) fill() error {
	if c.Trainable == nil {
		return errors.New("trainer: Trainable is required (wrap a model.Model with model.Wrap)")
	}
	if c.CodecFactory == nil {
		c.CodecFactory = func() codec.Codec { return &codec.Raw{} }
	}
	c.codec = c.CodecFactory()
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
	if c.RoundDeadline > 0 {
		if c.minGatherFraction <= 0 || c.minGatherFraction > 1 {
			c.minGatherFraction = defaultMinGatherFraction
		}
		if c.maxStrikes < 1 {
			c.maxStrikes = defaultMaxStrikes
		}
	}
	if c.CheckpointEvery < 1 {
		c.CheckpointEvery = 1
	}
	c.decodeSlots = make(chan struct{}, runtime.GOMAXPROCS(0))
	if err := CheckTopology(c.Topology, c.UseTCP, c.codec, c.Workers); err != nil {
		return fmt.Errorf("trainer: %w", err)
	}
	return nil
}

// CheckTopology states a gather topology's preconditions. Star has none;
// tree needs the in-memory transport (UseTCP wires star links only), a
// codec.Merger, and at most 65,535 workers (the frameAgg prefix carries the
// gradient count as uint16; more would truncate silently). A nil codec
// skips the Merger check, for a caller that has not built its codec yet.
// Run checks the same again, so a caller checks early only to fail in its
// own terms: the job service at submit time, the command line before
// loading data.
func CheckTopology(topo cluster.Topology, useTCP bool, c codec.Codec, workers int) error {
	switch topo {
	case cluster.TopologyStar:
		return nil
	case cluster.TopologyTree:
	default:
		return fmt.Errorf("unknown topology %d", int(topo))
	}
	if useTCP {
		return fmt.Errorf("gather %s requires the in-memory transport", topo)
	}
	if _, ok := c.(codec.Merger); !ok && c != nil {
		return fmt.Errorf("gather %s requires a mergeable codec (codec.Merger), %s is not", topo, c.Name())
	}
	if workers > math.MaxUint16 {
		return fmt.Errorf("gather %s supports at most %d workers, got %d", topo, math.MaxUint16, workers)
	}
	return nil
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

	timeouts     int64 // broadcast waits that expired
	corrupt      int64 // frames that failed envelope parse or decode
	skippedSteps int64 // optimizer steps skipped (missed or undecodable aggregates)

	// Hierarchical-gather accounting (zero under star).
	mergeNs  int64 // CPU spent in codec.MergeInto
	merges   int64 // successful wire-to-wire merges performed
	aggBytes int64 // bytes received over the tree child links
}

const workerReportLen = 72

func (w workerReport) marshal() []byte {
	out := make([]byte, 0, workerReportLen)
	out = binary.LittleEndian.AppendUint64(out, uint64(w.computeNs))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.encodeNs))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.decodeNs))
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
		timeouts:     int64(binary.LittleEndian.Uint64(data[24:])),
		corrupt:      int64(binary.LittleEndian.Uint64(data[32:])),
		skippedSteps: int64(binary.LittleEndian.Uint64(data[40:])),
		mergeNs:      int64(binary.LittleEndian.Uint64(data[48:])),
		merges:       int64(binary.LittleEndian.Uint64(data[56:])),
		aggBytes:     int64(binary.LittleEndian.Uint64(data[64:])),
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

// runPlan is what the run derives from its Config and training set before
// the first round: the shards, the batch geometry and the resume point.
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

// RunContext is Run bounded by a context: when ctx is cancelled, every
// blocking receive on the driver and every worker unblocks (the driver's
// watcher closes all links), the run stops within at most one
// RoundDeadline plus the round in flight, and the returned error wraps
// ctx.Err(). Cancellation is a hard stop — for a graceful one that
// checkpoints and collects worker reports, use Config.Drain.
func RunContext(ctx context.Context, cfg Config, train, test *dataset.Dataset) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Whatever error surfaced first (a closed link, a failed decode, a lost
	// quorum), cancellation is the root cause once ctx is done; report it as
	// such so callers can errors.Is the context error.
	defer func() {
		if err != nil && ctx.Err() != nil {
			res, err = nil, fmt.Errorf("trainer: run cancelled: %w", ctx.Err())
		}
	}()
	plan, err := planRun(&cfg, train)
	if err != nil {
		return nil, err
	}
	lk, err := wireLinks(ctx, &cfg)
	if err != nil {
		return nil, err
	}
	defer lk.close()

	// Cancellation watcher: closing every link is what makes ctx.Done()
	// reach the blocking receives — the memory transport closes the whole
	// pair and TCP sends a FIN, so driver gathers, worker waits and a
	// strict-mode tree worker blocked on a child receive (which has no
	// deadline) alike fail immediately instead of running out their
	// deadlines. The watcher itself joins through watchDone before Run
	// returns.
	if ctx.Done() != nil {
		runDone := make(chan struct{})
		watchDone := make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-ctx.Done():
				lk.close()
			case <-runDone:
			}
		}()
		defer func() { close(runDone); <-watchDone }()
	}

	// Launch workers, each with its own codec instance, built in index
	// order after the driver's.
	workerErrs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wcfg := cfg
		wcfg.codec = cfg.CodecFactory()
		go func(w int, wcfg Config) {
			workerErrs <- runWorker(wcfg, plan, w, lk.worker[w], &lk.tree[w])
		}(w, wcfg)
	}

	d := &driver{
		cfg: &cfg, plan: plan, conns: lk.driver,
		acc:         gradient.NewAccumulator(plan.pDim),
		strikes:     make([]int, cfg.Workers),
		decodeReuse: make([]gradient.Sparse, cfg.Workers),
		tm:          newTrainerMetrics(cfg.Metrics),
		round:       plan.startRound,
	}
	if d.theta, d.opt, err = newReplica(&cfg, plan.pDim); err != nil {
		return nil, err
	}
	res = &Result{
		CodecName: cfg.codec.Name(),
		ModelName: cfg.Trainable.Name(),
		Workers:   cfg.Workers,
		Topology:  cfg.Topology.String(),
	}
	if err := d.train(ctx, res, test); err != nil {
		return nil, err
	}
	if err := d.foldReports(res, workerErrs); err != nil {
		return nil, err
	}
	// The final loss is the last epoch's, or, for a resume of an already
	// complete run (zero rounds executed, no epochs recorded), a direct
	// evaluation.
	if n := len(res.Epochs); n > 0 {
		res.FinalLoss, res.FinalAccuracy = res.Epochs[n-1].TestLoss, res.Epochs[n-1].Accuracy
	} else {
		res.FinalLoss, res.FinalAccuracy = cfg.Trainable.Evaluate(d.theta, test)
	}
	res.SketchError = d.errAcc.summary()
	return res, nil
}

// links is every connection of one run. The star driver↔worker links always
// exist: they carry star gradients and tree-root aggregates up, and
// broadcasts, reports and control frames on every topology. A tree run adds
// worker↔worker uplinks on top.
type links struct {
	driver []*cluster.CountingConn // driver's end of worker w's link: the traffic counter over the optional chaos layer
	worker []cluster.Conn          // worker w's end of the same link
	tree   []workerLinks           // worker w's tree uplink and child links (zero values under star)
}

// close closes every connection the run holds: the teardown, what a wiring
// that failed part-way must not leak, and what the cancellation watcher
// does to unblock every receive.
func (lk *links) close() {
	for w := range lk.tree {
		lk.tree[w].close()
	}
	for w := range lk.driver {
		if lk.driver[w] != nil {
			_ = lk.driver[w].Close()
		}
		if lk.worker[w] != nil {
			_ = lk.worker[w].Close()
		}
	}
}

// wireLinks builds the run's links: W star links over the in-memory
// transport or loopback TCP, each driver end wrapped in the (optional)
// fault-injection layer and the traffic counter, plus the tree uplinks.
// All links share one ConnMetrics set, so the registry's cluster.* counters
// aggregate the run's whole driver-side traffic.
func wireLinks(ctx context.Context, cfg *Config) (*links, error) {
	connMet := cluster.NewConnMetrics(cfg.Metrics)
	// wrap instruments one receiving end: seedIdx picks the link's
	// deterministic chaos schedule — it derives from chaos.Seed and the
	// index, so a run's fault pattern is reproducible end to end, and tree
	// links use indexes past the worker range so every link faults
	// independently — and outageFor names the worker whose chaosOutage window
	// applies to this link (negative: none).
	wrap := func(seedIdx int, inner cluster.Conn, outageFor int) *cluster.CountingConn {
		if cfg.chaos != nil {
			spec := *cfg.chaos
			spec.Seed = cfg.chaos.Seed + int64(seedIdx)*1_000_003
			spec.Outage = cluster.OutageWindow{}
			if outageFor >= 0 {
				spec.Outage = cfg.chaosOutage[outageFor]
			}
			inner = cluster.NewChaos(inner, spec)
		}
		return cluster.NewCountingObserved(inner, connMet)
	}
	// Under a tree topology, worker w≥2's outage moves from its driver link
	// to its tree uplink: an interior node dropping out should degrade its
	// subtree's gather while its broadcasts keep flowing — per-subtree
	// degradation, not whole-run.
	wrapStar := func(w int, inner cluster.Conn) *cluster.CountingConn {
		if cfg.Topology == cluster.TopologyTree && w >= 2 {
			return wrap(w, inner, -1)
		}
		return wrap(w, inner, w)
	}
	lk := &links{
		driver: make([]*cluster.CountingConn, cfg.Workers),
		worker: make([]cluster.Conn, cfg.Workers),
		tree:   make([]workerLinks, cfg.Workers),
	}
	if cfg.UseTCP {
		l, err := cluster.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		if err := lk.wireTCP(ctx, l, wrapStar); err != nil {
			return nil, err
		}
	} else {
		for w := range lk.driver {
			d, c := cluster.Pair(2)
			lk.driver[w], lk.worker[w] = wrapStar(w, d), c
		}
	}
	lk.wireTree(cfg, wrap)
	return lk, nil
}

// wireTCP opens the W star links through l, dialing then accepting one
// connection at a time on the calling goroutine: with a single connection
// pending, the w-th accept is worker w's, so link w — its chaos schedule,
// chaosOutage[w], strikes[w] and "worker w" in errors — is worker w's link
// over TCP exactly as over the in-memory transport. On failure every
// connection opened so far is closed.
func (lk *links) wireTCP(ctx context.Context, l *cluster.Listener, wrap func(w int, inner cluster.Conn) *cluster.CountingConn) error {
	for w := range lk.driver {
		c, err := cluster.DialContext(ctx, l.Addr())
		if err == nil {
			lk.worker[w] = c
			c, err = l.Accept()
		}
		if err != nil {
			lk.close()
			return err
		}
		lk.driver[w] = wrap(w, c)
	}
	return nil
}

// driver is the driver's state across the rounds of one run.
type driver struct {
	cfg   *Config
	plan  *runPlan
	conns []*cluster.CountingConn // links.driver

	theta []float64
	opt   optim.Optimizer
	acc   *gradient.Accumulator
	// strikes[w] counts worker w's consecutive missed rounds (tolerant mode
	// only); any round with its gradient present resets it.
	strikes []int
	// decodeReuse[w] is link w's persistent decode target (see gatherRound);
	// applied is the driver replica's. Allocated once, so every round after
	// the first decodes into warm buffers.
	decodeReuse []gradient.Sparse
	applied     gradient.Sparse
	frame       []byte // the one broadcast buffer, rebuilt every round (see broadcast)
	tm          trainerMetrics
	errAcc      errAccum
	// cp is the one Checkpoint the driver lends OnCheckpoint, refilled at
	// every boundary (see checkpoint).
	cp Checkpoint

	round    int   // global round counter: rounds completed, resumed ones included
	draining bool  // Config.Drain fired: stop at this round boundary
	up, down int64 // the links' byte totals at the last epoch boundary
}

// runRound is one bulk-synchronous round on the driver: gather and sum the
// worker gradients, encode and broadcast the aggregate, apply the decoded
// broadcast to the driver replica, and meter both halves into es.
func (d *driver) runRound(es *EpochStats) error {
	cfg := d.cfg
	// Gather worker gradients. Receives and decodes run concurrently across
	// links (Decode is safe for concurrent use on every codec); the
	// accumulator adds stay sequential in link order so float summation is
	// deterministic.
	// DecodeTime sums the per-goroutine decode durations rather than the
	// gather's wall time.
	tGather := time.Now()
	if err := gatherRound(*cfg, d.round, d.conns, d.strikes, d.decodeReuse, d.acc, es, &es.DecodeTime); err != nil {
		return err
	}
	agg := d.acc.Sum()
	gatherDur := time.Since(tGather)
	es.GatherTime += gatherDur
	d.tm.gatherNs.Observe(gatherDur.Nanoseconds())

	// Broadcast the aggregate, round-tagged. Every worker gets the
	// broadcast — including ones that just missed the round — because the
	// round tag is how a lagging worker discovers where the driver is and
	// rejoins. In tolerant mode a dead link must not kill the round (the
	// strike ledger handles persistent absence). The aggregate is encoded
	// straight into the driver's frame buffer.
	tBcast := time.Now()
	frame, err := codec.EncodeAppend(cfg.codec, beginFrame(d.frame[:0], frameGrad, d.round), agg)
	es.EncodeTime += time.Since(tBcast)
	if err != nil {
		return fmt.Errorf("trainer: encode aggregate: %w", err)
	}
	if err := d.broadcast(frame); err != nil {
		return err
	}

	// The driver replica applies the same decoded update the workers will
	// see, keeping every replica identical: it decodes the frame's payload.
	t0 := time.Now()
	applied, err := codec.DecodeReuse(cfg.codec, frame[frameHeaderLen:], &d.applied)
	es.DecodeTime += time.Since(t0)
	if err != nil {
		return err
	}
	if err := d.opt.Step(d.theta, applied); err != nil {
		return err
	}
	es.RawDownBytes += rawWireBytes(agg)
	bcastDur := time.Since(tBcast)
	es.BroadcastTime += bcastDur
	d.tm.broadcastNs.Observe(bcastDur.Nanoseconds())
	if cfg.Metrics != nil {
		// The decoded broadcast vs. the exact aggregate is the approximation
		// error every replica actually applies. It is an instrument, so it
		// runs once the broadcast's clock has stopped; agg and applied stay
		// valid until the next gather.
		d.errAcc.observe(agg, applied)
	}
	d.round++
	es.Rounds++
	return nil
}

// runEpoch runs the rounds from d.round to the end of its epoch, or to a
// drain, and returns their stats: the timed part of an epoch, which the
// "epoch" span and WallTime cover.
func (d *driver) runEpoch(ctx context.Context) (EpochStats, error) {
	es := EpochStats{Epoch: d.round / d.plan.roundsPerEpoch}
	end := (es.Epoch + 1) * d.plan.roundsPerEpoch
	start := time.Now()
	// Deferred: the epoch a failing round cuts short is the one a
	// post-mortem wants in the span ring.
	defer d.cfg.Metrics.StartSpan("epoch").End()
	for d.round < end && !d.draining {
		if err := ctx.Err(); err != nil {
			return es, err
		}
		if err := d.runRound(&es); err != nil {
			return es, err
		}
		// Drain is checked once the round in flight has fully closed (its
		// broadcast is out and applied), so the checkpoint that follows lands
		// exactly on a round boundary.
		if drainRequested(d.cfg.Drain) {
			d.draining = true
		}
	}
	var up, down int64
	for _, c := range d.conns {
		s := c.Stats()
		up += s.BytesRecv
		down += s.BytesSent
	}
	es.UpBytes = up - d.up
	es.DownBytes = (down - d.down) / int64(d.cfg.Workers)
	d.up, d.down = up, down
	es.WallTime = time.Since(start)
	d.tm.foldEpoch(&es)
	return es, nil
}

// train walks the global round counter from the plan's start round to the
// end of the run or a drain, an epoch at a time, so a resumed run can enter
// mid-epoch and a drain can leave mid-epoch: the first and last entries of
// res.Epochs then cover only the rounds actually executed (EpochStats.Rounds
// says how many). After each epoch's rounds it evaluates the model and
// checkpoints; at the end it tells the workers of a drain.
func (d *driver) train(ctx context.Context, res *Result, test *dataset.Dataset) error {
	cfg, rpe := d.cfg, d.plan.roundsPerEpoch
	var memBefore runtime.MemStats
	if cfg.Metrics != nil {
		runtime.ReadMemStats(&memBefore)
	}
	for d.round < d.plan.totalRounds && !d.draining {
		es, err := d.runEpoch(ctx)
		if err != nil {
			return err
		}
		// Evaluation is excluded from epoch timing, as the paper excludes
		// non-training phases.
		es.TestLoss, es.Accuracy = cfg.Trainable.Evaluate(d.theta, test)
		res.Epochs = append(res.Epochs, es)

		// A snapshot is due at every CheckpointEvery-th epoch boundary, and
		// unconditionally when a drain stops the run here — that final one is
		// what lets the job resume instead of restarting.
		due := d.round%rpe == 0 && (d.round/rpe)%cfg.CheckpointEvery == 0
		if cfg.OnCheckpoint != nil && (d.draining || due) {
			if err := cfg.OnCheckpoint(d.checkpoint()); err != nil {
				return fmt.Errorf("trainer: checkpoint: %w", err)
			}
		}
	}
	res.CompletedRounds = d.round

	// A drain that stopped short of the full run tells every worker to stop
	// through a stop frame: each worker finishes its in-flight step, files
	// its end-of-run report, and exits. Send errors are deliberately ignored
	// — a dead link's worker is past reaching, and the report collection
	// accounts for it.
	if d.draining && d.round < d.plan.totalRounds {
		res.Drained = true
		stopFrame := appendFrame(make([]byte, 0, frameHeaderLen), frameStop, d.round, nil)
		for _, c := range d.conns {
			_ = c.Send(stopFrame)
		}
	}
	if cfg.Metrics != nil {
		// Process-wide allocation count across the training loop (all
		// parties — the workers are goroutines here). The report surfaces it
		// so allocation regressions on the steady-state path show up in run
		// snapshots, not just in microbenchmarks.
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		d.tm.heapAllocs.Add(int64(memAfter.Mallocs - memBefore.Mallocs))
	}
	return nil
}

// foldReports closes the run's books. It collects one end-of-run report and
// one exit status per worker — in tolerant mode, and after a drain, a lost
// report or a failed worker degrades the stats instead of failing the run —
// then spreads the worker-side totals uniformly over the epochs.
func (d *driver) foldReports(res *Result, workerErrs <-chan error) error {
	cfg := d.cfg
	forgiving := cfg.tolerant() || res.Drained
	if cfg.Topology != cluster.TopologyStar {
		res.WorkerAggBytes = make([]int64, cfg.Workers)
	}
	var total workerReport
	for w := 0; w < cfg.Workers; w++ {
		rep, err := collectReport(*cfg, d.conns[w], w, d.plan.totalRounds, res.Drained)
		if err != nil {
			if !forgiving {
				return err
			}
			res.LostReports++
			continue
		}
		total.computeNs += rep.computeNs
		total.encodeNs += rep.encodeNs
		total.decodeNs += rep.decodeNs
		total.mergeNs += rep.mergeNs
		total.merges += rep.merges
		res.WorkerTimeouts += rep.timeouts
		res.WorkerCorruptFrames += rep.corrupt
		res.WorkerSkippedSteps += rep.skippedSteps
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
			if !forgiving {
				return err
			}
			res.WorkerFailures++
		}
	}

	// A resume of an already complete run executes zero rounds and records
	// no epochs; there is nothing to spread.
	n := len(res.Epochs)
	for i := range res.Epochs {
		es := &res.Epochs[i]
		// Until here the codec meters hold the driver's own calls only.
		es.DriverCodecTime = es.EncodeTime + es.DecodeTime
		es.ComputeTime = time.Duration(total.computeNs / int64(n))
		es.EncodeTime += time.Duration(total.encodeNs / int64(n))
		es.DecodeTime += time.Duration(total.decodeNs / int64(n))
		es.MergeTime = time.Duration(total.mergeNs / int64(n))
		es.Merges = total.merges / int64(n)
		if i == 0 {
			// The first epoch absorbs the integer-division remainder so the
			// per-epoch counts still sum to the run total.
			es.Merges += total.merges % int64(n)
		}
	}
	return nil
}

// frameWant names the one frame a receive is waiting for.
type frameWant struct {
	from    int  // sending worker, for error attribution; negative: the driver
	kind    byte // frameGrad or frameReport; a frameAgg is a frameGrad that sums more
	round   int
	orLater bool // a later round's frame matches too (the tolerant worker's broadcast wait)
}

// matches reports whether a valid frame of kind and tag is the one wanted.
func (w frameWant) matches(kind byte, tag int) bool {
	if kind != w.kind && (kind != frameAgg || w.kind != frameGrad) {
		return false
	}
	return tag == w.round || w.orLater && tag > w.round
}

// sender names the party a wait listens to, for errors.
func (w frameWant) sender() string {
	if w.from < 0 {
		return "the driver"
	}
	return fmt.Sprintf("worker %d", w.from)
}

// frameRecv is the outcome of one recvFrame call: the wanted frame, a stop
// frame, or a miss, and what the wait saw on the way.
type frameRecv struct {
	payload  []byte           // codec message or report body; aliases the transport buffer, nil on a miss
	round    int              // the matched frame's round tag
	count    int              // worker gradients payload sums (the frameAgg count; 1 for other kinds)
	g        *gradient.Sparse // payload decoded into the caller's dst, nil without one or on a miss
	stop     bool             // a stop frame ended the wait
	decodeNs int64
	bytes    int64 // raw frame bytes received, discarded frames included
	timeouts int
	corrupt  int
	stale    int
	err      error // a dead link in either mode; in strict mode, any anomaly that ended the wait
}

// recvFrame is the one frame-receive loop: every wait of a run, on the
// driver and on the workers, goes through it. It returns the first frame on
// conn that matches want, checksum-valid, with an aggregate count within
// [1, cfg.Workers] and, when dst is given, decodable into it, or a valid
// stop frame (only the driver sends one). It only reports what it saw: what
// a stop, a later round or a miss means is the caller's decision.
//
// budget == 0 is strict mode: the receive blocks until a frame arrives and
// any anomaly (dead link, bad envelope, wrong kind or round, out-of-range
// count, failed decode) is the returned err. budget > 0 is tolerant mode:
// anomalous frames are counted (corrupt: envelope, count, report size or
// decode; stale: a valid frame for another kind or round; collectReport
// drops both tallies, frames queued ahead of a report are expected),
// discarded, and the wait continues on what is left of the budget. An
// expired budget counts one timeout and is a miss. A dead link returns its
// error in both modes and counts nothing; a tolerant gather takes it as a
// miss (the strike ledger, not the timeout tally, tracks persistent
// absence).
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
		msg, err := conn.RecvTimeout(wait)
		if errors.Is(err, cluster.ErrTimeout) {
			out.timeouts++
			return out
		}
		if err != nil {
			out.err = fmt.Errorf("trainer: recv from %s: %w", want.sender(), err)
			return out
		}
		out.bytes += int64(len(msg))
		kind, tag, payload, err := parseFrame(msg)
		count := 1
		switch {
		case err != nil:
		case kind == frameAgg:
			count, payload, err = parseAggFrame(payload)
			if err == nil && count > cfg.Workers {
				err = fmt.Errorf("trainer: aggregate frame sums %d gradients, run has %d workers", count, cfg.Workers)
			}
		case kind == frameReport && len(payload) != workerReportLen:
			err = fmt.Errorf("trainer: bad report size %d", len(payload))
		}
		if err != nil {
			if strict {
				out.err = fmt.Errorf("trainer: frame from %s: %w", want.sender(), err)
				return out
			}
			out.corrupt++
			continue
		}
		if kind == frameStop {
			out.stop = true
			return out
		}
		if !want.matches(kind, tag) {
			if strict {
				out.err = fmt.Errorf("trainer: %s sent kind 0x%02x round %d while kind 0x%02x round %d was due",
					want.sender(), kind, tag, want.kind, want.round)
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
					out.err = fmt.Errorf("trainer: decode from %s: %w", want.sender(), err)
					return out
				}
				out.corrupt++
				continue
			}
			out.g = g
		}
		out.payload, out.round, out.count = payload, tag, count
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
	g, err := codec.DecodeReuse(cfg.codec, payload, dst)
	ns := time.Since(t0).Nanoseconds()
	if cfg.decodeSlots != nil {
		<-cfg.decodeSlots
	}
	return g, ns, err
}

// recvEach is the one fan-out, for the driver's gather and an interior
// worker's child wait: one recvFrame per link for round's gradient, each on
// its own goroutine. Link i's sender is worker first+i; dst[i], when dst is
// given, is its decode target.
func recvEach[C cluster.Conn](cfg Config, conns []C, first, round int, budget time.Duration, dst []gradient.Sparse) []frameRecv {
	outs := make([]frameRecv, len(conns))
	var wg sync.WaitGroup
	wg.Add(len(conns))
	for i := range conns {
		// cfg travels as a goroutine argument (copied onto the new
		// goroutine's stack): captured, the >128-byte struct would be moved
		// to the heap by reference once per round.
		go func(i int, cfg Config) {
			defer wg.Done()
			var d *gradient.Sparse
			if dst != nil {
				d = &dst[i]
			}
			outs[i] = recvFrame(&cfg, conns[i], frameWant{from: first + i, kind: frameGrad, round: round}, budget, d)
		}(i, cfg)
	}
	wg.Wait()
	return outs
}

// gatherRound is the driver's gather for every topology: receive and decode
// one message per listened driver link for the given round, tally what the
// waits saw, check quorum, keep the strike ledger, and fold the arrivals
// into acc at weights that keep the aggregate the unbiased mean of the
// worker gradients that made it. cfg.Topology decides only which links are
// listened on: star all W, tree the min(W, 2) root links. Either way the
// messages cover disjoint worker sets, so there is one sum rule: every
// message is weighted 1/total contributors, and quorum and SkippedGrads
// count contributors.
//
// The receive+decode pairs run on one goroutine per link (recvEach); the
// decode meter sums their decode durations (timedDecode), not the gather's
// wall time. Accumulator adds happen sequentially in link order, keeping
// the float summation (and thus training) deterministic; each add reads
// its decode at once into the scatter acc borrows from the pool, and
// refuses a gradient of another dimension, which is the only check a
// decoded gradient's Dim gets. reuse[w] is link w's persistent decode
// target, so after warm-up the gather allocates nothing per round beyond
// the bookkeeping below.
//
// Strict mode (RoundDeadline == 0) requires every worker gradient and any
// fault aborts. Tolerant mode aggregates whatever arrived by the deadline
// and aborts only on quorum loss (fewer than ceil(minGatherFraction·W)
// contributors) or when one link reaches maxStrikes consecutive misses.
func gatherRound(cfg Config, round int, driverSide []*cluster.CountingConn, strikes []int, reuse []gradient.Sparse, acc *gradient.Accumulator, es *EpochStats, driverDecode *time.Duration) error {
	links := cfg.Workers
	if cfg.Topology == cluster.TopologyTree {
		links = min(cfg.Workers, 2)
	}
	outs := recvEach(cfg, driverSide[:links], 0, round, cfg.RoundDeadline, reuse[:links])
	// total sums the contributors over the arrivals.
	total := 0
	for w := range outs {
		o := &outs[w]
		*driverDecode += time.Duration(o.decodeNs)
		es.Timeouts += o.timeouts
		es.CorruptFrames += o.corrupt
		es.StaleFrames += o.stale
		if o.g == nil {
			continue
		}
		total += o.count
		es.RawUpBytes += rawWireBytes(o.g)
		es.DecodedBytes += int64(len(o.payload))
	}
	if !cfg.tolerant() {
		for w := range outs {
			if outs[w].err != nil {
				return outs[w].err
			}
		}
		if total != cfg.Workers {
			return fmt.Errorf("trainer: strict %s gather: round %d did not sum all %d worker gradients (%d gradients arrived)",
				cfg.Topology, round, cfg.Workers, total)
		}
	}
	if total > cfg.Workers {
		// Two in-range tree counts can still sum past W. No link fault
		// explains that, so it aborts rather than skew the round's weights.
		return fmt.Errorf("trainer: round %d: %s gather summed %d gradients from %d workers", round, cfg.Topology, total, cfg.Workers)
	}
	if cfg.tolerant() {
		quorum := max(int(math.Ceil(cfg.minGatherFraction*float64(cfg.Workers))), 1)
		if total < quorum {
			return fmt.Errorf("trainer: round %d: quorum lost, only %d/%d gradients arrived (need %d)",
				round, total, cfg.Workers, quorum)
		}
		for w := range outs {
			if outs[w].g != nil {
				strikes[w] = 0
				continue
			}
			strikes[w]++
			es.Strikes++
			if strikes[w] >= cfg.maxStrikes {
				return fmt.Errorf("trainer: worker %d missed %d consecutive rounds (through round %d)",
					w, strikes[w], round)
			}
		}
		es.SkippedGrads += cfg.Workers - total
		if total != cfg.Workers {
			es.DegradedRounds++
		}
	}
	for w := range outs {
		if o := &outs[w]; o.g != nil {
			if err := acc.Add(o.g, 1.0/float64(total)); err != nil {
				return err
			}
		}
	}
	return nil
}

// broadcast seals frame — begun with beginFrame in d.frame, its payload
// complete — keeps it as the frame buffer, and sends it to every worker.
// One buffer serves every link because every transport is done with the
// bytes when Send returns: memConn copies, TCP completes its vectored write,
// and the chaos wrapper copies before corrupting. In strict mode a send
// error aborts. In tolerant mode a refused send is a missed frame, exactly
// as if chaos had dropped it: the worker's next broadcast carries a later
// round tag and fast-forwards it.
func (d *driver) broadcast(frame []byte) error {
	sealFrame(frame)
	d.frame = frame
	for w, c := range d.conns {
		if err := c.Send(frame); err != nil && !d.cfg.tolerant() {
			return fmt.Errorf("trainer: send to worker %d: %w", w, err)
		}
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
	r := recvFrame(&cfg, conn, frameWant{from: w, kind: frameReport, round: totalRounds}, budget, nil)
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
	// Closing the tree links on exit is what unblocks a strict-mode peer
	// still receiving on the shared pair.
	defer links.close()
	theta, opt, err := newReplica(&cfg, plan.pDim)
	if err != nil {
		return err
	}
	startRound, totalRounds := plan.startRound, plan.totalRounds
	// The batcher is deterministic and fast-forwards past the rounds a
	// resumed run already executed: the shuffle sequence depends only on the
	// seed, so replaying the draws (without computing gradients) puts the
	// batch stream exactly where the interrupted run left it.
	batcher := dataset.NewBatcher(plan.shards[w], plan.localBatch, cfg.Seed+int64(w)*7919)
	var buf []*dataset.Instance
	for r := 0; r < startRound; r++ {
		buf = batcher.Next(buf)
	}
	var rep workerReport
	// grad and aggScratch (like links' frame buffers) are kept for the whole
	// job, so a warm round allocates neither its gradient nor its aggregate;
	// both are consumed within the round.
	var grad gradient.Sparse
	var aggScratch gradient.Sparse
	// misses counts consecutive broadcast waits that expired; it is the
	// worker-side liveness bound (the driver may legitimately go quiet for
	// a while during an outage on this link, but not forever).
	misses := 0
rounds:
	for round := startRound; round < totalRounds; round++ {
		t0 := time.Now()
		buf = batcher.Next(buf)
		g, _ := model.BatchGradientReuse(cfg.Trainable, &grad, theta, buf, cfg.Lambda)
		rep.computeNs += time.Since(t0).Nanoseconds()
		if err := gatherStep(cfg, links, conn, g, round, &rep); err != nil {
			return err
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
			r := recvFrame(&cfg, conn, frameWant{from: -1, kind: frameGrad, round: round, orLater: cfg.tolerant()}, 2*cfg.RoundDeadline, nil)
			rep.timeouts += int64(r.timeouts)
			rep.corrupt += int64(r.corrupt)
			if r.err != nil {
				return r.err
			}
			if r.stop {
				// Drain notice: no aggregate follows, and the driver skims the
				// gradient just sent. File the report and exit.
				break rounds
			}
			if r.payload == nil {
				if misses++; misses >= cfg.maxStrikes {
					return fmt.Errorf("trainer: worker lost contact with driver (%d broadcast waits expired)", misses)
				}
				continue
			}
			// A later tag means the driver has moved on: broadcasts for
			// rounds [round, tag) never made it here. Fast-forward onto the
			// newest aggregate and rejoin the current round.
			rep.skippedSteps += int64(r.round - round)
			round = r.round
			t0 = time.Now()
			agg, err = codec.DecodeReuse(cfg.codec, r.payload, &aggScratch)
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

// paramsInitializer is implemented by trainables (e.g. nn.MLP) whose
// parameter vector needs deterministic non-zero initialization.
type paramsInitializer interface {
	InitTheta(theta []float64)
}

// newReplica builds one replica's parameters and optimizer. The parameter
// space need not be the feature space (nn.MLP's is its layers'); every
// replica sizes and initializes its vector identically. On resume,
// parameters and optimizer state load from the checkpoint bit-exactly.
func newReplica(cfg *Config, pDim uint64) ([]float64, optim.Optimizer, error) {
	theta := make([]float64, pDim)
	if init, ok := cfg.Trainable.(paramsInitializer); ok {
		init.InitTheta(theta)
	}
	opt := cfg.Optimizer(pDim)
	if cfg.Resume != nil {
		copy(theta, cfg.Resume.Theta)
		if err := restoreOptimizer(opt, cfg.Resume); err != nil {
			return nil, nil, err
		}
	}
	return theta, opt, nil
}
