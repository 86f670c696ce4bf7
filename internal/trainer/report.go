package trainer

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"sketchml/internal/codec"
	"sketchml/internal/gradient"
	"sketchml/internal/obs"
)

// This file is the trainer's observability surface: the per-run instrument
// set, the raw-traffic equivalence accounting that compression ratios
// are read against, the continuously measured sketch recovery error, and
// the run report: a finished Result as the JSON document a run emits
// (cmd/sketchml -metrics-out), with the rules every reader holds it to.

// trainerMetrics is the driver's pre-resolved instrument set. The zero
// value (from a nil registry) is fully inert: every field is a nil-safe obs
// handle, so the training loop records unconditionally.
type trainerMetrics struct {
	gatherNs    *obs.Histogram // per-round driver wall: gather + aggregate
	broadcastNs *obs.Histogram // per-round driver wall: encode + send + apply
	rounds      *obs.Counter

	timeouts       *obs.Counter
	skippedGrads   *obs.Counter
	corruptFrames  *obs.Counter
	staleFrames    *obs.Counter
	strikes        *obs.Counter
	degradedRounds *obs.Counter

	// heapAllocs and heapAllocBytes record the process allocation count
	// and bytes across the training loop (see the end of train) so run
	// reports expose steady-state allocation burn, not just
	// microbenchmarks.
	heapAllocs     *obs.Counter
	heapAllocBytes *obs.Counter
}

func newTrainerMetrics(reg *obs.Registry) trainerMetrics {
	if reg == nil {
		return trainerMetrics{}
	}
	return trainerMetrics{
		gatherNs:       reg.Histogram("trainer.gather_ns"),
		broadcastNs:    reg.Histogram("trainer.broadcast_ns"),
		rounds:         reg.Counter("trainer.rounds"),
		timeouts:       reg.Counter("trainer.timeouts"),
		skippedGrads:   reg.Counter("trainer.skipped_grads"),
		corruptFrames:  reg.Counter("trainer.corrupt_frames"),
		staleFrames:    reg.Counter("trainer.stale_frames"),
		strikes:        reg.Counter("trainer.strikes"),
		degradedRounds: reg.Counter("trainer.degraded_rounds"),
		heapAllocs:     reg.Counter(obs.CounterTrainerHeapAllocs),
		heapAllocBytes: reg.Counter("trainer.heap_alloc_bytes"),
	}
}

// foldEpoch mirrors an epoch's robustness tallies into the run counters.
func (m *trainerMetrics) foldEpoch(es *EpochStats) {
	m.rounds.Add(int64(es.Rounds))
	m.timeouts.Add(int64(es.Timeouts))
	m.skippedGrads.Add(int64(es.SkippedGrads))
	m.corruptFrames.Add(int64(es.CorruptFrames))
	m.staleFrames.Add(int64(es.StaleFrames))
	m.strikes.Add(int64(es.Strikes))
	m.degradedRounds.Add(int64(es.DegradedRounds))
}

// rawWireBytes is the bytes this gradient would cost on the wire with the
// uncompressed baseline codec (codec.Raw in double precision) inside the
// trainer's frame envelope. Compression ratios in run reports are measured
// against this, so they are end-to-end wire ratios, not payload-only ones.
func rawWireBytes(g *gradient.Sparse) int64 {
	return int64(frameHeaderLen + codec.RawBreakdown(g.Dim, len(g.Keys), false).Total())
}

// ErrorSummary is the continuously measured sketch recovery error: each
// round the driver decodes its own broadcast and compares it against the
// exact aggregate it encoded, so the report carries the approximation error
// actually incurred, not just the theoretical bound.
type ErrorSummary struct {
	Rounds     int64   `json:"rounds"`
	Values     int64   `json:"values"`
	SignFlips  int64   `json:"sign_flips"`   // decoded sign disagrees with exact (must stay 0 for SketchML)
	MeanAbsErr float64 `json:"mean_abs_err"` // mean |decoded - exact|
	MaxAbsErr  float64 `json:"max_abs_err"`
	MeanRelErr float64 `json:"mean_rel_err"` // mean |decoded - exact| / |exact|
}

// errAccum accumulates the per-round comparison between the exact aggregate
// the driver encoded and its own decode of the broadcast — the
// approximation error actually applied to the model, measured continuously.
type errAccum struct {
	rounds    int64
	values    int64
	signFlips int64
	sumAbs    float64
	maxAbs    float64
	sumRel    float64
	relCount  int64
}

// observe compares one round's exact aggregate against its decoded form.
// Keys survive every codec exactly, so the two gradients are walked
// two-pointer by key; a key present on one side only (impossible for the
// built-in codecs, tolerated for third-party ones) counts as a full-error
// value against the side that has it.
func (a *errAccum) observe(exact, decoded *gradient.Sparse) {
	a.rounds++
	i, j := 0, 0
	record := func(e, d float64) {
		a.values++
		diff := math.Abs(d - e)
		a.sumAbs += diff
		if diff > a.maxAbs {
			a.maxAbs = diff
		}
		if e*d < 0 {
			a.signFlips++
		}
		if e != 0 {
			a.sumRel += diff / math.Abs(e)
			a.relCount++
		}
	}
	for i < len(exact.Keys) && j < len(decoded.Keys) {
		switch {
		case exact.Keys[i] == decoded.Keys[j]:
			record(exact.Values[i], decoded.Values[j])
			i++
			j++
		case exact.Keys[i] < decoded.Keys[j]:
			record(exact.Values[i], 0)
			i++
		default:
			record(0, decoded.Values[j])
			j++
		}
	}
	for ; i < len(exact.Keys); i++ {
		record(exact.Values[i], 0)
	}
	for ; j < len(decoded.Keys); j++ {
		record(0, decoded.Values[j])
	}
}

func (a *errAccum) summary() *ErrorSummary {
	if a.rounds == 0 {
		return nil
	}
	s := &ErrorSummary{
		Rounds:    a.rounds,
		Values:    a.values,
		SignFlips: a.signFlips,
		MaxAbsErr: a.maxAbs,
	}
	if a.values > 0 {
		s.MeanAbsErr = a.sumAbs / float64(a.values)
	}
	if a.relCount > 0 {
		s.MeanRelErr = a.sumRel / float64(a.relCount)
	}
	return s
}

// Report is the JSON document of one training run: the run's Result, the
// command that produced it and the snapshot of the registry the run
// recorded into. It stores what the run measured and nothing derived from
// it; a reader sums the epochs for totals and divides RawUpBytes by UpBytes
// for the compression ratio.
type Report struct {
	Tool string `json:"tool,omitempty"` // producing command, e.g. "sketchml"
	*Result
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// BuildRunReport wraps a finished run as a validated Report. reg is the
// registry the run recorded into (its snapshot is embedded and
// cross-checked against the epochs' wire bytes); it may be nil, in which
// case the report carries the run alone. An inconsistent report is a bug,
// returned as an error rather than written anywhere.
func BuildRunReport(tool string, res *Result, reg *obs.Registry) (*Report, error) {
	rpt := &Report{Tool: tool, Result: res, Metrics: reg.Snapshot()}
	if err := rpt.Validate(); err != nil {
		return nil, err
	}
	return rpt, nil
}

// Validate enforces the report's self-consistency rules. A report file is
// input from outside the program, so every stored quantity is checked:
//
//   - at least one worker and one epoch, each epoch with positive rounds,
//     wire bytes, raw wire bytes and wall time;
//   - driver stage times (gather + broadcast) are non-negative and fit
//     inside the epoch wall time — they partition the round loop, so
//     exceeding it means a meter double-counted;
//   - hierarchical-aggregation accounting is coherent: decoded bytes never
//     exceed the epoch's wire bytes (the driver can only decode what
//     arrived), merge meters are non-negative, and a star (or untagged)
//     report carries no merges at all;
//   - every robustness counter is non-negative; an epoch degrades at most
//     its rounds, and skips at most W−1 gradients a round (gatherRound
//     aborts a round below quorum, and quorum is at least one); at most W
//     reports are lost and at most W workers fail (a worker that dies
//     counts in both);
//   - when a metrics snapshot with cluster counters is attached, the wire
//     bytes cannot exceed what the transport layer counted (the counters
//     may exceed the epochs' sum: end-of-run report frames arrive after
//     the last epoch boundary).
func (r *Report) Validate() error {
	if r.Result == nil || len(r.Epochs) == 0 {
		return fmt.Errorf("trainer: report has no epochs")
	}
	if r.Workers < 1 {
		return fmt.Errorf("trainer: report has %d workers", r.Workers)
	}
	var sumUp, sumDown, sumMerges int64
	for i := range r.Epochs {
		e := &r.Epochs[i]
		if err := e.validate(r.Workers); err != nil {
			return fmt.Errorf("trainer: epoch %d: %w", e.Epoch, err)
		}
		sumUp += e.UpBytes
		sumDown += e.DownBytes
		sumMerges += e.Merges
	}
	if r.Topology == "" || r.Topology == "star" {
		if sumMerges != 0 {
			return fmt.Errorf("trainer: star topology report carries %d merges", sumMerges)
		}
		if len(r.LevelMergeNs) != 0 {
			return fmt.Errorf("trainer: star topology report carries %d merge levels", len(r.LevelMergeNs))
		}
	}
	for lvl, ns := range r.LevelMergeNs {
		if ns < 0 {
			return fmt.Errorf("trainer: negative merge time %dns at aggregation level %d", ns, lvl)
		}
	}
	if min(r.WorkerTimeouts, r.WorkerSkippedSteps, r.WorkerCorruptFrames, int64(r.CompletedRounds)) < 0 {
		return fmt.Errorf("trainer: negative worker-side counter (timeouts %d, skipped steps %d, corrupt frames %d, completed rounds %d)",
			r.WorkerTimeouts, r.WorkerSkippedSteps, r.WorkerCorruptFrames, r.CompletedRounds)
	}
	if r.LostReports < 0 || r.LostReports > r.Workers || r.WorkerFailures < 0 || r.WorkerFailures > r.Workers {
		return fmt.Errorf("trainer: lost reports %d or worker failures %d outside [0, workers %d]",
			r.LostReports, r.WorkerFailures, r.Workers)
	}
	if r.Metrics != nil {
		if recv, ok := r.Metrics.Counters[obs.CounterClusterBytesRecv]; ok && sumUp > recv {
			return fmt.Errorf("trainer: report up bytes %d exceed cluster recv counter %d", sumUp, recv)
		}
		if sent, ok := r.Metrics.Counters[obs.CounterClusterBytesSent]; ok && sumDown*int64(r.Workers) > sent {
			return fmt.Errorf("trainer: report down bytes %d×%d exceed cluster sent counter %d",
				sumDown, r.Workers, sent)
		}
	}
	if se := r.SketchError; se != nil {
		if se.Values < 0 || se.SignFlips < 0 || se.MeanAbsErr < 0 || se.MaxAbsErr < se.MeanAbsErr {
			return fmt.Errorf("trainer: implausible sketch error summary %+v", *se)
		}
	}
	return nil
}

// validate holds one epoch of a report of a run over the given workers to
// Report.Validate's per-epoch rules.
func (e *EpochStats) validate(workers int) error {
	switch {
	case e.Rounds <= 0:
		return fmt.Errorf("rounds %d <= 0", e.Rounds)
	case e.UpBytes <= 0 || e.RawUpBytes <= 0:
		return fmt.Errorf("non-positive wire accounting (up %d, raw %d)", e.UpBytes, e.RawUpBytes)
	case e.WallTime <= 0:
		return fmt.Errorf("wall time %d <= 0", e.WallTime)
	case e.GatherTime < 0 || e.BroadcastTime < 0:
		return fmt.Errorf("negative stage time")
	case e.GatherTime+e.BroadcastTime > e.WallTime:
		return fmt.Errorf("driver stages %dns exceed wall %dns", e.GatherTime+e.BroadcastTime, e.WallTime)
	case e.DecodedBytes < 0 || e.DecodedBytes > e.UpBytes:
		return fmt.Errorf("decoded bytes %d outside [0, up bytes %d]", e.DecodedBytes, e.UpBytes)
	case e.Merges < 0 || e.MergeTime < 0:
		return fmt.Errorf("negative merge accounting (merges %d, %dns)", e.Merges, e.MergeTime)
	case min(e.Timeouts, e.SkippedGrads, e.CorruptFrames, e.StaleFrames, e.Strikes, e.DegradedRounds) < 0:
		return fmt.Errorf("negative robustness counter (timeouts %d, skipped %d, corrupt %d, stale %d, strikes %d, degraded %d)",
			e.Timeouts, e.SkippedGrads, e.CorruptFrames, e.StaleFrames, e.Strikes, e.DegradedRounds)
	case e.DegradedRounds > e.Rounds:
		return fmt.Errorf("degraded rounds %d exceed rounds %d", e.DegradedRounds, e.Rounds)
	case e.SkippedGrads > e.Rounds*(workers-1):
		return fmt.Errorf("skipped gradients %d exceed rounds×(workers−1) = %d", e.SkippedGrads, e.Rounds*(workers-1))
	}
	return nil
}

// WriteFile validates the report and writes it to path as indented JSON.
func (r *Report) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}

// ReadReport loads and validates a run report from path. A report from
// before the stage times sat on the epoch still loads: its nested
// "stages", its stored totals and its compression ratios are ignored, so
// its stage times read zero.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("trainer: parse report %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("trainer: report %s: %w", path, err)
	}
	return &r, nil
}
