package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/model"
	"sketchml/internal/optim"
	"sketchml/internal/trainer"
)

// The shared input ("kdd12-xl") and the fixed work of one job. Every
// workload trains the same model on the same distribution for the same
// number of rounds, so rows differ only in the configuration they name.
const (
	instances     = 120_000
	dim           = 2_000_000
	avgNNZ        = 40
	zipfS         = 1.05
	noiseStd      = 0.5
	trainFraction = 0.9
	workers       = 4
	epochs        = 12
	batchFraction = 0.1
	roundsPerEp   = 10
	totalRounds   = epochs * roundsPerEp
	lambda        = 0.01
	learningRate  = 0.1

	// poolSeed fixes the distribution the instances are drawn from: the
	// generator draws its ground-truth weights from the same seed as the
	// instances, and how separable the labels are swings the reachable
	// loss by ±8 % from one generator seed to the next. --seed therefore
	// picks which instances train and which test, how they are sharded
	// and in which order they are batched — not how hard the problem is.
	poolSeed = 1

	// serviceSeed is the one seed the service's job spec takes for
	// generator, split and batching alike; it stays fixed for the same
	// reason, and --seed only names the job.
	serviceSeed = 1
)

// workload is one named configuration. targetLoss is the test loss a job
// must have reached when its fixed work is done for its time to count as a
// time to target; a job that ends above it is a failed operation.
//
// The loss is only seen when an epoch ends, and how many epochs a job needs
// to get below a given loss depends on the seed far more than on the
// machine (four to eight epochs for 0.56 over seeds 11–18), so a target
// crossed in mid-run makes time_to_target_s jump by whole epochs from seed
// to seed. The target is therefore one every seed has reached with room to
// spare by the end of the job (over fifty seeds the SketchML rows end at
// 0.504–0.543, Raw at 0.497–0.508, the service's one seed at 0.537), and
// the time is that of the whole job.
type workload struct {
	name       string
	raw        bool // codec.Raw instead of SketchML defaults
	tcp        bool // loopback TCP instead of cluster.Pair
	tree       bool // TopologyTree instead of star
	service    bool // submitted over HTTP to service.Handler
	targetLoss float64
}

// workloads are the configurations the command can run. BENCHMARK.json
// declares all of them except lr-sketch-star-mem, which is run by hand for
// the TCP-against-memory and tree-against-star comparisons: the time the
// driver gives all its runs buys four workloads of one whole job each.
var workloads = []workload{
	{name: "lr-sketch-star-tcp", tcp: true, targetLoss: 0.57},
	{name: "lr-raw-star-tcp", raw: true, tcp: true, targetLoss: 0.53},
	{name: "lr-sketch-star-mem", targetLoss: 0.57},
	{name: "lr-sketch-tree-mem", tree: true, targetLoss: 0.57},
	{name: "svc-lr-sketch-ckpt", service: true, targetLoss: 0.57},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is what the program under test receives: datasets, never the seed
// that made them.
type inputs struct {
	train, test *dataset.Dataset
	generateS   float64
	splitS      float64
}

// generate builds the shared input for one seed.
func generate(seed int64) (*inputs, error) {
	t0 := time.Now()
	ds, err := dataset.Generate(dataset.SyntheticConfig{
		N: instances, Dim: dim, AvgNNZ: avgNNZ, ZipfS: zipfS,
		BinaryVals: true, NoiseStd: noiseStd, Seed: poolSeed,
	})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	train, test := ds.Split(trainFraction, seed)
	return &inputs{
		train: train, test: test,
		generateS: t1.Sub(t0).Seconds(), splitS: time.Since(t1).Seconds(),
	}, nil
}

func (w workload) buildCodec() fullCodec {
	if w.raw {
		return &codec.Raw{}
	}
	return codec.MustSketchML(codec.DefaultOptions())
}

// config is the trainer configuration of one job. With a tracer, the three
// seams Config exposes carry the timing wrappers; nothing else differs.
func (w workload) config(seed int64, tr *tracer) trainer.Config {
	cfg := trainer.Config{
		Trainable:     model.Wrap(model.LogisticRegression{}),
		CodecFactory:  func() codec.Codec { return w.buildCodec() },
		Optimizer:     func(d uint64) optim.Optimizer { return optim.NewAdam(learningRate, d) },
		Workers:       workers,
		BatchFraction: batchFraction,
		Epochs:        epochs,
		Lambda:        lambda,
		Seed:          seed,
		UseTCP:        w.tcp,
	}
	if w.tree {
		cfg.Topology = cluster.TopologyTree
	}
	if tr != nil {
		cfg.Trainable = &tracedTrainable{inner: cfg.Trainable, tr: tr}
		cfg.CodecFactory = tracedCodecFactory(w.buildCodec, tr)
		cfg.Optimizer = func(d uint64) optim.Optimizer {
			return &tracedOptimizer{inner: optim.NewAdam(learningRate, d), tr: tr}
		}
	}
	return cfg
}

// jobStats is what one finished job looked like from outside.
type jobStats struct {
	rounds     int
	wallS      float64 // around the Run call (service: Finished − Started)
	epochWallS []float64
	epochLoss  []float64
	finalLoss  float64
	upBytes    int64 // worker → driver
	downBytes  int64 // driver → all workers
	aggBytes   int64 // worker → worker aggregation links
	allocBytes uint64
	failedOps  int
	res        *trainer.Result // nil for a service job
}

func (j *jobStats) wireBytesPerRound() float64 {
	return float64(j.upBytes+j.downBytes+j.aggBytes) / float64(j.rounds)
}

// quietEpochS is the wall time of an epoch that nothing disturbed: the
// shortest of the epochs' wall times. Every epoch is the same work, and on
// a shared host interference only ever lengthens one, in phases of seconds
// to minutes: the mean and the median of a job's epochs move with however
// many of them a slow phase covered (the median by the whole slow-down as
// soon as that is half), while the shortest stays put as long as one epoch
// of the job ran undisturbed.
func quietEpochS(epochWallS []float64) float64 { return percentile(epochWallS, 0) }

// jobTimeS is the job's wall time with every epoch's training time counted
// as a quiet epoch's; what is around the epochs (link wiring, evaluation
// and checkpoints not hidden behind the next round, report collection) is
// taken as measured.
func (j *jobStats) jobTimeS(wallS float64) float64 {
	var inEpochs float64
	for _, e := range j.epochWallS {
		inEpochs += e
	}
	return wallS - inEpochs + float64(len(j.epochWallS))*quietEpochS(j.epochWallS)
}

// runJob trains once through the public entry point and collects what the
// caller of trainer.Run can see.
func runJob(cfg trainer.Config, in *inputs) (*jobStats, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	res, err := trainer.Run(cfg, in.train, in.test)
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	j := &jobStats{
		rounds:     res.CompletedRounds,
		wallS:      wall.Seconds(),
		finalLoss:  res.FinalLoss,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		failedOps:  res.LostReports + res.WorkerFailures,
		res:        res,
	}
	for _, e := range res.Epochs {
		j.epochWallS = append(j.epochWallS, e.WallTime.Seconds())
		j.epochLoss = append(j.epochLoss, e.TestLoss)
		j.upBytes += e.UpBytes
		j.downBytes += e.DownBytes * int64(cfg.Workers)
		j.failedOps += e.SkippedGrads
	}
	for _, b := range res.WorkerAggBytes {
		j.aggBytes += b
	}
	if j.rounds != totalRounds {
		return nil, fmt.Errorf("job completed %d rounds, want %d", j.rounds, totalRounds)
	}
	return j, nil
}

// attempted is the number of operations one job can fail: every worker's
// gradient in every round, reaching the target, and the job as a whole. A
// run attempts that many per job it trains.
const attempted = totalRounds*workers + 2

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
