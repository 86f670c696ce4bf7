package trainer

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"sketchml/internal/codec"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
	"sketchml/internal/obs"
)

// TestRunReportOverTCP is the observability layer's end-to-end proof: a
// real loopback-TCP training run with one shared registry across trainer,
// codec, and cluster must produce a run report that passes every
// self-consistency rule — nonzero compression measured against raw
// traffic, driver stage times that fit inside the epoch wall time, and
// wire totals that never exceed what the transport layer counted.
func TestRunReportOverTCP(t *testing.T) {
	train, test := smallData(t)
	reg := obs.NewRegistry()
	copts := codec.DefaultOptions()
	copts.Metrics = reg
	res, err := Run(Config{
		Trainable:    model.Wrap(model.LogisticRegression{}),
		CodecFactory: shared(codec.MustSketchML(copts)),
		Optimizer:    adamFactory(0.1),
		Workers:      3,
		Epochs:       2,
		Seed:         7,
		UseTCP:       true,
		Metrics:      reg,
	}, train, test)
	if err != nil {
		t.Fatal(err)
	}

	rpt, err := BuildRunReport("test", res, reg)
	if err != nil {
		t.Fatalf("report failed validation: %v", err)
	}
	up, rawUp := wireTotals(rpt)
	if c := float64(rawUp) / float64(up); c <= 1 {
		t.Errorf("compression ratio %v, want > 1 for SketchML", c)
	}
	for _, e := range rpt.Epochs {
		if e.GatherTime <= 0 || e.BroadcastTime <= 0 {
			t.Errorf("epoch %d: zero stage times gather %v broadcast %v", e.Epoch, e.GatherTime, e.BroadcastTime)
		}
		if e.GatherTime+e.BroadcastTime > e.WallTime {
			t.Errorf("epoch %d: stages exceed wall", e.Epoch)
		}
	}

	// The embedded snapshot must carry the cluster, codec, and trainer
	// instruments, mutually consistent with the report's accounting.
	s := rpt.Metrics
	if s == nil {
		t.Fatal("no metrics snapshot embedded")
	}
	if s.Counters[obs.CounterClusterBytesRecv] < up {
		t.Errorf("cluster recv counter %d < report up bytes %d",
			s.Counters[obs.CounterClusterBytesRecv], up)
	}
	if n := s.Counters["codec.encodes"]; n <= 0 {
		t.Errorf("codec.encodes = %d, want > 0", n)
	}
	// Every counted allocation is at least one byte.
	if allocs, bytes := s.Counters[obs.CounterTrainerHeapAllocs], s.Counters["trainer.heap_alloc_bytes"]; allocs <= 0 || bytes < allocs {
		t.Errorf("trainer.heap_allocs = %d, trainer.heap_alloc_bytes = %d, want 0 < allocs <= bytes", allocs, bytes)
	}
	if h, ok := s.Histograms["trainer.gather_ns"]; !ok || h.Count == 0 {
		t.Error("trainer.gather_ns histogram missing or empty")
	}
	if h, ok := s.Histograms["codec.bucket_index"]; !ok || h.Count == 0 {
		t.Error("codec.bucket_index histogram missing or empty")
	}
	if len(s.Spans) == 0 {
		t.Error("no epoch spans recorded")
	}

	// The measured sketch error must exist, be sign-preserving, and match
	// the MinMaxSketch decay-only contract (decoded never amplified means
	// error stays bounded; zero sign flips is SketchML's core invariant).
	if rpt.SketchError == nil {
		t.Fatal("no sketch error summary")
	}
	if rpt.SketchError.Rounds == 0 || rpt.SketchError.Values == 0 {
		t.Fatalf("empty sketch error summary: %+v", rpt.SketchError)
	}
	if rpt.SketchError.SignFlips != 0 {
		t.Errorf("%d sign flips, SketchML must preserve signs", rpt.SketchError.SignFlips)
	}

	// The report must survive a file round trip (WriteFile validates).
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rpt.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(path); err != nil {
		t.Fatal(err)
	}
}

// TestRunReportInMemoryRaw pins the accounting edge the Raw codec hits:
// compression against the raw baseline is ~1 (only envelope framing
// differs), and a metrics-free run still fills the raw/stage accounting in
// EpochStats without a registry.
func TestRunReportInMemoryRaw(t *testing.T) {
	train, test := smallData(t)
	res, err := Run(Config{
		Trainable:    model.Wrap(model.LogisticRegression{}),
		CodecFactory: shared(&codec.Raw{}),
		Optimizer:    adamFactory(0.1),
		Workers:      2,
		Epochs:       1,
		Seed:         5,
	}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.SketchError != nil {
		t.Error("sketch error measured without a registry")
	}
	es := res.Epochs[0]
	if es.RawUpBytes <= 0 || es.GatherTime <= 0 || es.BroadcastTime <= 0 {
		t.Fatalf("metrics-free run lost accounting: raw=%d gather=%v bcast=%v",
			es.RawUpBytes, es.GatherTime, es.BroadcastTime)
	}
	rpt, err := BuildRunReport("test", res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rpt.Metrics != nil {
		t.Error("nil registry produced a snapshot")
	}
	// Raw traffic is the baseline itself: the ratio must sit near 1.
	up, rawUp := wireTotals(rpt)
	if c := float64(rawUp) / float64(up); c < 0.9 || c > 1.1 {
		t.Errorf("raw codec compression %v, want ~1", c)
	}
}

// lastRoundFailure is a Raw codec whose failAt-th encode fails, so the
// worker that owns it dies at that round with its gradient unsent.
type lastRoundFailure struct {
	codec.Raw
	encodes, failAt int
}

func (c *lastRoundFailure) Encode(g *gradient.Sparse) ([]byte, error) {
	return c.AppendEncode(nil, g)
}

func (c *lastRoundFailure) AppendEncode(dst []byte, g *gradient.Sparse) ([]byte, error) {
	c.encodes++
	if c.failAt > 0 && c.encodes >= c.failAt {
		return dst, errors.New("injected encode fault")
	}
	return c.Raw.AppendEncode(dst, g)
}

// TestRunReportAcceptsDeadWorkers pins the bound on the end-of-run books: a
// worker that dies loses its report too, so it counts in both LostReports
// and WorkerFailures. Two of three workers die in the last round under a
// one-gradient quorum; the run completes, and its report must validate
// although the two counts sum past W.
func TestRunReportAcceptsDeadWorkers(t *testing.T) {
	train, test := smallData(t)
	cfg := Config{
		Trainable:     model.Wrap(model.LogisticRegression{}),
		Optimizer:     adamFactory(0.1),
		Workers:       3,
		Epochs:        1,
		Seed:          3,
		RoundDeadline: 200 * time.Millisecond,
	}
	clean, err := Run(cfg, train, test)
	if err != nil {
		t.Fatal(err)
	}
	parties := 0
	cfg.minGatherFraction = 1.0 / 3
	cfg.CodecFactory = func() codec.Codec {
		parties++
		c := &lastRoundFailure{}
		if parties > 2 { // instances 3 and 4 are workers 1 and 2
			c.failAt = clean.CompletedRounds
		}
		return c
	}
	res, err := Run(cfg, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostReports != 2 || res.WorkerFailures != 2 || res.Epochs[0].SkippedGrads != 2 {
		t.Fatalf("lost %d reports, %d failures, %d skipped gradients; want 2, 2, 2",
			res.LostReports, res.WorkerFailures, res.Epochs[0].SkippedGrads)
	}
	if _, err := BuildRunReport("test", res, nil); err != nil {
		t.Fatalf("report of a completed run rejected: %v", err)
	}
}

// wireTotals sums a report's up and raw-baseline up bytes over its epochs.
func wireTotals(r *Report) (up, rawUp int64) {
	for _, e := range r.Epochs {
		up += e.UpBytes
		rawUp += e.RawUpBytes
	}
	return up, rawUp
}

// TestErrAccumTwoPointer pins the exact-vs-decoded walk, including the
// disjoint-key paths no built-in codec exercises.
func TestErrAccumTwoPointer(t *testing.T) {
	exact := gradient.FromMap(100, map[uint64]float64{1: 1.0, 5: -2.0, 9: 4.0})
	decoded := gradient.FromMap(100, map[uint64]float64{1: 0.5, 5: 2.0, 11: 3.0})
	var a errAccum
	a.observe(exact, decoded)
	s := a.summary()
	if s.Rounds != 1 || s.Values != 4 {
		t.Fatalf("summary %+v, want 1 round over 4 values", s)
	}
	if s.SignFlips != 1 { // only key 5 flips; 9-vs-0 and 0-vs-11 are not flips
		t.Errorf("sign flips %d, want 1", s.SignFlips)
	}
	if s.MaxAbsErr != 4.0 { // key 9 missing from decoded
		t.Errorf("max abs err %v, want 4", s.MaxAbsErr)
	}
	// |0.5| + |4| + |4| + |3| over 4 values.
	if want := (0.5 + 4 + 4 + 3) / 4.0; s.MeanAbsErr != want {
		t.Errorf("mean abs err %v, want %v", s.MeanAbsErr, want)
	}
}
