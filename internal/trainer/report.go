package trainer

import (
	"math"

	"sketchml/internal/codec"
	"sketchml/internal/gradient"
	"sketchml/internal/obs"
)

// This file is the trainer's observability surface: the per-run instrument
// set, the raw-traffic equivalence accounting behind the reported
// compression ratios, the continuously measured sketch recovery error, and
// the builder that turns a finished Result into a validated obs.RunReport.

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

	// heapAllocs records the process allocation count across the training
	// loop (see the end of Run) so run reports expose steady-state
	// allocation burn, not just microbenchmarks.
	heapAllocs *obs.Counter
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

func (a *errAccum) summary() *obs.ErrorSummary {
	if a.rounds == 0 {
		return nil
	}
	s := &obs.ErrorSummary{
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

// BuildRunReport assembles a validated obs.RunReport from a finished run.
// reg is the registry the run recorded into (its snapshot is embedded and
// cross-checked against the report's wire totals); it may be nil, in which
// case the report carries the epoch accounting alone. The returned report
// always passes obs Validate — an inconsistent one is a bug, reported as an
// error rather than written anywhere.
func BuildRunReport(tool string, res *Result, reg *obs.Registry) (*obs.RunReport, error) {
	rpt := &obs.RunReport{
		Tool:    tool,
		Codec:   res.CodecName,
		Model:   res.ModelName,
		Workers: res.Workers,
	}
	for _, es := range res.Epochs {
		er := obs.EpochReport{
			Epoch:        es.Epoch,
			Rounds:       es.Rounds,
			UpBytes:      es.UpBytes,
			DownBytes:    es.DownBytes,
			RawUpBytes:   es.RawUpBytes,
			RawDownBytes: es.RawDownBytes,
			DecodedBytes: es.DecodedBytes,
			Merges:       es.Merges,
			Stages: obs.StageNs{
				GatherNs:    es.GatherTime.Nanoseconds(),
				BroadcastNs: es.BroadcastTime.Nanoseconds(),
				ComputeNs:   es.ComputeTime.Nanoseconds(),
				EncodeNs:    es.EncodeTime.Nanoseconds(),
				DecodeNs:    es.DecodeTime.Nanoseconds(),
				MergeNs:     es.MergeTime.Nanoseconds(),
			},
			WallNs:   es.WallTime.Nanoseconds(),
			TestLoss: es.TestLoss,
			Accuracy: es.Accuracy,
		}
		if es.UpBytes > 0 {
			er.Compression = float64(es.RawUpBytes) / float64(es.UpBytes)
		}
		rpt.Epochs = append(rpt.Epochs, er)
		rpt.TotalUpBytes += es.UpBytes
		rpt.TotalDownBytes += es.DownBytes
		rpt.TotalRawUpBytes += es.RawUpBytes
		rpt.TotalWallNs += es.WallTime.Nanoseconds()
	}
	if rpt.TotalUpBytes > 0 {
		rpt.Compression = float64(rpt.TotalRawUpBytes) / float64(rpt.TotalUpBytes)
	}
	rpt.FinalLoss = res.FinalLoss
	rpt.FinalAccuracy = res.FinalAccuracy
	rpt.Topology = res.Topology
	rpt.LevelMergeNs = res.LevelMergeNs
	rpt.SketchError = res.SketchError
	rpt.Metrics = reg.Snapshot()
	if err := rpt.Validate(); err != nil {
		return nil, err
	}
	return rpt, nil
}
