package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"sketchml/internal/obs"
	"sketchml/internal/optim"
	"sketchml/internal/service"
	"sketchml/internal/trainer"
)

// metric is one reported value; result is the line a run prints last.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`

	// failures lists the output checks that did not hold; any makes the
	// command exit non-zero.
	failures []string
}

func (r *result) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// setupReps is how often a run sets up, so that setup_s is a median.
const setupReps = 3

// maxTracingOverheadPct is the most the tracing wrappers may cost a traced
// job before its per-layer numbers stop speaking for the untraced program.
const maxTracingOverheadPct = 3

// releaseMemory returns freed heap to the OS so that one set-up's garbage
// does not raise the next phase's peak RSS.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMB reads this process's high-water resident set from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// scratchDir makes this process's scratch directory under dir.
func scratchDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "scratch-")
}

// runUntraced measures the end-to-end metrics of one workload: it sets up
// setupReps times, then trains whole jobs, one after the other, until the
// next would not finish within seconds (always at least one). The rate is
// that of a quiet epoch over every epoch of every job, the time to target
// the median over the jobs; bytes and loss must be the same in every job.
func runUntraced(w workload, seed int64, seconds float64, outDir string, stdout io.Writer) (*result, error) {
	res := &result{Metrics: metricSet{}}
	scratch, err := scratchDir(outDir)
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(scratch) }()

	// Set up setupReps times. All but the last are torn down again; the
	// last is the one the first job runs on (for the service, that job's
	// own POST).
	var setupS []float64
	var in *inputs
	for i := 1; i <= setupReps; i++ {
		in = nil
		releaseMemory()
		if w.service {
			if i < setupReps {
				s, err := serviceSetup(scratch, fmt.Sprintf("setup-%d", i))
				if err != nil {
					return nil, err
				}
				setupS = append(setupS, s)
			}
			continue
		}
		t0 := time.Now()
		if in, err = generate(seed); err != nil {
			return nil, err
		}
		_ = w.buildCodec()
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var jobs []*jobStats
	var turnaroundS []float64
	began := time.Now()
	for n := 0; ; n++ {
		var j *jobStats
		if w.service {
			sj, err := runServiceJob(scratch, fmt.Sprintf("bench-seed%d-%d", seed, n))
			if err != nil {
				return nil, err
			}
			if n == 0 {
				setupS = append(setupS, sj.setupS)
			}
			turnaroundS = append(turnaroundS, sj.turnaroundS)
			j = &sj.jobStats
		} else if j, err = runJob(w.config(seed, nil), in); err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		fmt.Fprintf(stdout, "job %d: wall %.3f s, epoch walls %.3f s, epoch losses %.4f\n", n, j.wallS, j.epochWallS, j.epochLoss)
		elapsed := time.Since(began).Seconds()
		if elapsed+elapsed/float64(len(jobs)) > seconds {
			break
		}
		releaseMemory()
	}

	res.Attempted = attempted * len(jobs)
	first := jobs[0]
	var epochWallS, ttt, allocMB []float64
	for n, j := range jobs {
		res.Failed += j.failedOps
		// Over TCP the driver sums the workers' gradients in the order
		// their connections were accepted, which differs from run to run
		// in the last bits; the in-memory rows repeat exactly.
		if math.Abs(j.finalLoss-first.finalLoss) > 1e-9 && !w.tcp {
			res.failf("job %d ended at loss %.12f, job 0 at %.12f", n, j.finalLoss, first.finalLoss)
		}
		if !(j.finalLoss <= w.targetLoss) {
			res.Failed++
			res.failf("job %d ended at loss %v, above the target %.4f (epoch losses %.4f)", n, j.finalLoss, w.targetLoss, j.epochLoss)
		}
		epochWallS = append(epochWallS, j.epochWallS...)
		allocMB = append(allocMB, float64(j.allocBytes)/1e6/float64(j.rounds))
		// A client of the service waits from the POST's return to the
		// finished job; a caller of trainer.Run for the call.
		wallS := j.wallS
		if w.service {
			wallS = turnaroundS[n]
		}
		ttt = append(ttt, j.jobTimeS(wallS))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m := res.Metrics
	m.set("setup_s", median(setupS), "s")
	m.set("rounds_per_s", roundsPerEp/quietEpochS(epochWallS), "1/s")
	m.set("time_to_target_s", median(ttt), "s")
	m.set("final_test_loss", first.finalLoss, "loss")
	m.set("wire_bytes_per_round", first.wireBytesPerRound(), "B")
	m.set("alloc_mb_per_round", median(allocMB), "MB")
	m.set("peak_rss_mb", rss, "MB")
	if res.Failed > 0 {
		res.failf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// runTraced measures the per-layer metrics of one workload: a reference job
// without tracing, the same job with the timing wrappers installed, and
// the replay of what the traced job captured.
func runTraced(w workload, seed int64, outDir string) (*result, error) {
	res := &result{Metrics: metricSet{}, Attempted: 2 * attempted} // two jobs
	m := res.Metrics
	scratch, err := scratchDir(outDir)
	if err != nil {
		return nil, err
	}
	defer func() { _ = os.RemoveAll(scratch) }()

	// Reference job and traced job.
	var in *inputs
	var ref, traced *jobStats
	var sj *serviceJob
	var cp *trainer.Checkpoint
	var runEnd int64 // when the traced job returned, on the tracer's clock
	var tr *tracer
	if w.service {
		if sj, err = runServiceJob(scratch, fmt.Sprintf("bench-seed%d-ref", seed)); err != nil {
			return nil, err
		}
		ref = &sj.jobStats
		releaseMemory()
		if in, err = twinInputs(); err != nil {
			return nil, err
		}
		store, err := service.NewCheckpointStore(scratch, nil)
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		tr = newTracer(totalRounds, workers)
		traced, err = runJob(twinConfig(tr, store, reg, &cp), in)
		runEnd = time.Since(tr.origin).Nanoseconds()
		if err != nil {
			return nil, err
		}
		store.Delete("twin")
		// Count the twin's bytes where the HTTP job's are counted: in the
		// run's registry, which also sees the workers' end-of-run reports.
		traced.upBytes = reg.Counter(obs.CounterClusterBytesRecv).Value()
		traced.downBytes = reg.Counter(obs.CounterClusterBytesSent).Value()
	} else {
		if in, err = generate(seed); err != nil {
			return nil, err
		}
		if ref, err = runJob(w.config(seed, nil), in); err != nil {
			return nil, err
		}
		releaseMemory()
		tr = newTracer(totalRounds, workers)
		traced, err = runJob(w.config(seed, tr), in)
		runEnd = time.Since(tr.origin).Nanoseconds()
		if err != nil {
			return nil, err
		}
		adam := optim.NewAdam(learningRate, dim)
		cp = &trainer.Checkpoint{
			Rounds: totalRounds, RoundsPerEpoch: roundsPerEp, Workers: workers, Seed: seed,
			CodecName: traced.res.CodecName, ModelName: traced.res.ModelName,
			Theta: make([]float64, dim), OptState: adam.MarshalState(),
		}
	}
	res.Failed = ref.failedOps + traced.failedOps

	// Tracing must not change what the program computes.
	if ref.wireBytesPerRound() != traced.wireBytesPerRound() { //lint:allow float-equality exact byte counts divided by the same round count
		res.failf("traced run moved %.1f B/round, untraced %.1f", traced.wireBytesPerRound(), ref.wireBytesPerRound())
	}
	if math.Abs(ref.finalLoss-traced.finalLoss) > 1e-9 && !w.tcp {
		res.failf("traced run ended at loss %.12f, untraced at %.12f", traced.finalLoss, ref.finalLoss)
	}

	spans, err := tr.finish(totalRounds)
	if err != nil {
		return nil, err
	}
	if err := writeChromeTrace(filepath.Join(outDir, w.name+".trace.json"), spans, workers); err != nil {
		return nil, err
	}
	phases, err := partitionRounds(spans, totalRounds)
	if err != nil {
		return nil, err
	}
	tracedMetrics(m, spans, phases, traced, runEnd)
	// With more parties than cores a descheduled driver can finish its
	// step of one round after the workers have encoded the next, so single
	// rounds may overlap by a few milliseconds; over the run the phases
	// must still account for the rounds' wall within 2 %.
	var clamped, wall int64
	for _, p := range phases {
		clamped += p.Clamped
		wall += p.Wall
	}
	if float64(clamped) > 0.02*float64(wall) {
		res.failf("phase boundaries out of order by %.2f ms of %.2f ms of rounds", float64(clamped)/1e6, float64(wall)/1e6)
	}
	// By how much the wrappers can have slowed the traced job at most: all
	// the time spent in them, on any party, as if none of it had overlapped
	// with anything, over the wall the job would have had without it.
	ownS := float64(tr.ownNs.Load()) / 1e9
	overhead := 100 * ownS / (traced.wallS - ownS)
	m.set("trainer.tracing_overhead_pct", overhead, "%")
	if overhead > maxTracingOverheadPct {
		res.failf("the tracing wrappers took %.2f %% of the traced job, more than %v %%", overhead, maxTracingOverheadPct)
	}
	m.set("trainer.oversubscription", float64(workers)/float64(runtime.GOMAXPROCS(0)), "ratio")
	m.set("dataset.generate_s", in.generateS, "s")
	m.set("dataset.split_s", in.splitS, "s")

	serviceMetrics(m, sj)

	failures, err := replay(replayInputs{
		w: w, workerG: tr.workerG, aggG: tr.aggG, batch: tr.batch, theta: tr.theta,
		train: in.train, cp: cp, dir: scratch,
	}, m)
	if err != nil {
		return nil, err
	}
	res.failures = append(res.failures, failures...)
	if res.Failed > 0 {
		res.failf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return res, nil
}

// serviceMetrics reports what the HTTP client's clock and the store's
// registry say about the service job; sj is nil, and every value 0, on the
// rows that run no service.
func serviceMetrics(m metricSet, sj *serviceJob) {
	var submitMs, queueMs, pollUs, ckptBytes, ckptMs, stall float64
	if sj != nil {
		writes := float64(sj.ckptWrites)
		submitMs, queueMs, pollUs = sj.submitMs, sj.queueToStartMs, median(sj.pollUs)
		ckptBytes = float64(sj.ckptBytes) / writes
		ckptMs = float64(sj.ckptWriteNs) / 1e6 / writes
		stall = float64(sj.ckptWriteNs) / 1e9 / sj.wallS
	}
	m.set("service.submit_ms", submitMs, "ms")
	m.set("service.queue_to_start_ms", queueMs, "ms")
	m.set("service.status_poll_us.p50", pollUs, "us")
	m.set("service.ckpt_bytes", ckptBytes, "B")
	m.set("service.ckpt_write_ms.mean", ckptMs, "ms")
	m.set("service.ckpt_stall_share", stall, "ratio")
}

// tracedMetrics derives the in-run per-layer metrics from the spans, the
// round phases and the trainer's own counters.
func tracedMetrics(m metricSet, spans []span, phases []roundPhases, j *jobStats, runEndNs int64) {
	ms := func(ns float64) float64 { return ns / 1e6 }
	rounds := float64(len(phases))

	var wall, worker, gather, bcastEnc, bcast, epochWork, gatherWait, bcastWait []float64
	for _, p := range phases {
		wall = append(wall, ms(float64(p.Wall)))
		worker = append(worker, ms(float64(p.Worker)))
		gather = append(gather, ms(float64(p.Gather)))
		bcastEnc = append(bcastEnc, ms(float64(p.BcastEnc)))
		bcast = append(bcast, ms(float64(p.Broadcast)))
		epochWork = append(epochWork, ms(float64(p.EpochWork)))
		gatherWait = append(gatherWait, ms(float64(p.GatherWait)))
		bcastWait = append(bcastWait, ms(float64(p.BroadcastWait)))
	}
	tail := tailPercentile(len(wall))
	m.set("trainer.round_ms.p50", median(wall), "ms")
	m.set("trainer.round_ms.tail", percentile(wall, tail), "ms")
	m.set("trainer.round_ms.tail_pct", tail, "%")
	m.set("trainer.round_ms.n", rounds, "count")
	m.set("trainer.phase_worker_ms", mean(worker), "ms")
	m.set("trainer.phase_gather_ms", mean(gather), "ms")
	m.set("trainer.phase_bcast_encode_ms", mean(bcastEnc), "ms")
	m.set("trainer.phase_broadcast_ms", mean(bcast), "ms")
	m.set("trainer.phase_epoch_work_ms", mean(epochWork), "ms")
	m.set("cluster.gather_wait_ms_per_round", mean(gatherWait), "ms")
	m.set("cluster.broadcast_wait_ms_per_round", mean(bcastWait), "ms")

	// Durations and work counts per kind of call.
	dur := map[string][]float64{}
	nnz := map[string][]float64{}
	size := map[string][]float64{}
	attributed := []interval{{phases[0].Start, phases[len(phases)-1].End}}
	for _, s := range spans {
		k := s.Name
		if s.Name == spanEncode || s.Name == spanDecodeInto {
			k += "@worker"
			if s.Party == 0 {
				k = s.Name + "@driver"
			}
		}
		dur[k] = append(dur[k], ms(float64(s.End-s.Start)))
		nnz[k] = append(nnz[k], float64(s.NNZ))
		size[k] = append(size[k], float64(s.Bytes))
		if s.Name == spanEvaluate || s.Name == spanCheckpoint {
			attributed = append(attributed, interval{s.Start, s.End})
		}
	}
	m.set("trainer.unattributed_share", 1-float64(coveredWithin(attributed, 0, runEndNs))/float64(runEndNs), "ratio")
	m.set("model.compute_ms_per_call.p50", median(dur[spanBatchGradient]), "ms")
	m.set("model.compute_calls_per_round", float64(len(dur[spanBatchGradient]))/rounds, "count")
	m.set("model.evaluate_ms_per_epoch", mean(dur[spanEvaluate]), "ms")
	m.set("optim.apply_ms_per_call.p50", median(dur[spanStep]), "ms")
	m.set("codec.encode_worker_ms_per_call.p50", median(dur[spanEncode+"@worker"]), "ms")
	m.set("codec.encode_driver_ms_per_call.p50", median(dur[spanEncode+"@driver"]), "ms")
	m.set("codec.decode_driver_ms_per_call.p50", median(dur[spanDecodeInto+"@driver"]), "ms")
	m.set("codec.decode_worker_ms_per_call.p50", median(dur[spanDecodeInto+"@worker"]), "ms")
	m.set("codec.merge_ms_per_call.p50", median(dur[spanMergeInto]), "ms")
	m.set("codec.merge_calls_per_round", float64(len(dur[spanMergeInto]))/rounds, "count")
	m.set("codec.worker_msg_nnz", mean(nnz[spanEncode+"@worker"]), "nnz")
	m.set("codec.agg_msg_nnz", mean(nnz[spanEncode+"@driver"]), "nnz")
	m.set("codec.worker_msg_bytes", mean(size[spanEncode+"@worker"]), "B")
	m.set("codec.agg_msg_bytes", mean(size[spanEncode+"@driver"]), "B")

	// The program's own counters, per round.
	var gatherNs, bcastNs, decoded, merges float64
	for _, e := range j.res.Epochs {
		gatherNs += float64(e.GatherTime.Nanoseconds())
		bcastNs += float64(e.BroadcastTime.Nanoseconds())
		decoded += float64(e.DecodedBytes)
		merges += float64(e.Merges)
	}
	var levelNs float64
	for _, ns := range j.res.LevelMergeNs {
		levelNs += float64(ns)
	}
	m.set("trainer.gather_ms_per_round", ms(gatherNs)/rounds, "ms")
	m.set("trainer.broadcast_ms_per_round", ms(bcastNs)/rounds, "ms")
	m.set("trainer.driver_decoded_bytes_per_round", decoded/rounds, "B")
	m.set("trainer.merges_per_round", merges/rounds, "count")
	m.set("trainer.level_merge_ms_per_round", ms(levelNs)/rounds, "ms")
	m.set("cluster.up_bytes_per_round", float64(j.upBytes)/rounds, "B")
	m.set("cluster.down_bytes_per_round", float64(j.downBytes)/rounds, "B")
	m.set("cluster.agg_link_bytes_per_round", float64(j.aggBytes)/rounds, "B")
}
