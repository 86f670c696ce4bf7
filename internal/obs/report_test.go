// The run report is trainer.Report: obs cannot import the trainer, but this
// external test package can, and it holds the report's rules beside the
// counter names they cross-check.
package obs_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sketchml/internal/obs"
	"sketchml/internal/trainer"
)

// validReport builds a minimal self-consistent report the mutation tests
// below perturb one field at a time.
func validReport() *trainer.Report {
	return &trainer.Report{
		Tool: "test",
		Result: &trainer.Result{
			CodecName: "SketchML",
			ModelName: "LR",
			Workers:   2,
			Epochs: []trainer.EpochStats{
				{
					Epoch: 0, Rounds: 10,
					UpBytes: 1000, DownBytes: 400, RawUpBytes: 8000, RawDownBytes: 3200,
					GatherTime: 30, BroadcastTime: 20, ComputeTime: 500, EncodeTime: 40, DecodeTime: 35,
					WallTime: 100, TestLoss: 0.5,
				},
				{
					Epoch: 1, Rounds: 10,
					UpBytes: 900, DownBytes: 380, RawUpBytes: 7200, RawDownBytes: 3000,
					GatherTime: 25, BroadcastTime: 25, ComputeTime: 480, EncodeTime: 38, DecodeTime: 33,
					WallTime: 95, TestLoss: 0.4,
				},
			},
			FinalLoss:       0.4,
			SketchError:     &trainer.ErrorSummary{Rounds: 20, Values: 4000, MeanAbsErr: 0.001, MaxAbsErr: 0.01},
			CompletedRounds: 20,
		},
	}
}

// TestRunReportValidateAccepts also pins each bound at its edge: a rule
// tightened by one rejects a report a real run can write.
func TestRunReportValidateAccepts(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	r := validReport()
	e := &r.Epochs[0]
	e.DegradedRounds = e.Rounds
	e.SkippedGrads = e.Rounds * (r.Workers - 1)
	e.DecodedBytes = e.UpBytes
	e.GatherTime = e.WallTime - e.BroadcastTime
	r.LostReports, r.WorkerFailures = r.Workers, r.Workers // a worker that dies loses its report too
	if err := r.Validate(); err != nil {
		t.Fatalf("report at every bound rejected: %v", err)
	}
}

// TestRunReportValidateRejects mutates one consistency invariant at a time
// and demands a loud failure mentioning the right thing.
func TestRunReportValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*trainer.Report)
		wantSub string
	}{
		{"no epochs", func(r *trainer.Report) { r.Epochs = nil }, "no epochs"},
		{"no result", func(r *trainer.Report) { r.Result = nil }, "no epochs"},
		{"no workers", func(r *trainer.Report) { r.Workers = 0 }, "0 workers"},
		{"zero rounds", func(r *trainer.Report) { r.Epochs[0].Rounds = 0 }, "rounds"},
		{"zero up bytes", func(r *trainer.Report) { r.Epochs[0].UpBytes = 0 }, "wire accounting"},
		{"zero raw up bytes", func(r *trainer.Report) { r.Epochs[0].RawUpBytes = 0 }, "wire accounting"},
		{"zero wall", func(r *trainer.Report) { r.Epochs[0].WallTime = 0 }, "wall"},
		{"stages exceed wall", func(r *trainer.Report) { r.Epochs[1].GatherTime = 90 }, "exceed wall"},
		{"negative stage", func(r *trainer.Report) { r.Epochs[0].BroadcastTime = -1 }, "negative stage"},
		{"decoded exceeds up", func(r *trainer.Report) { r.Epochs[0].DecodedBytes = 1001 }, "decoded bytes"},
		{"negative decoded", func(r *trainer.Report) { r.Epochs[0].DecodedBytes = -1 }, "decoded bytes"},
		{"negative merges", func(r *trainer.Report) { r.Epochs[0].Merges = -1 }, "merge accounting"},
		{"negative merge time", func(r *trainer.Report) { r.Epochs[0].MergeTime = -1 }, "merge accounting"},
		{"star merges", func(r *trainer.Report) { r.Epochs[0].Merges = 1 }, "carries 1 merges"},
		{"star merge levels", func(r *trainer.Report) { r.LevelMergeNs = []int64{5} }, "merge levels"},
		{"negative level merge", func(r *trainer.Report) { r.Topology, r.LevelMergeNs = "tree", []int64{5, -1} }, "aggregation level 1"},
		{"negative timeouts", func(r *trainer.Report) { r.Epochs[0].Timeouts = -1 }, "negative robustness"},
		{"negative skipped grads", func(r *trainer.Report) { r.Epochs[0].SkippedGrads = -1 }, "negative robustness"},
		{"negative corrupt frames", func(r *trainer.Report) { r.Epochs[0].CorruptFrames = -1 }, "negative robustness"},
		{"negative stale frames", func(r *trainer.Report) { r.Epochs[0].StaleFrames = -1 }, "negative robustness"},
		{"negative strikes", func(r *trainer.Report) { r.Epochs[0].Strikes = -1 }, "negative robustness"},
		{"negative degraded rounds", func(r *trainer.Report) { r.Epochs[0].DegradedRounds = -1 }, "negative robustness"},
		{"degraded exceed rounds", func(r *trainer.Report) { r.Epochs[1].DegradedRounds = 11 }, "degraded rounds 11"},
		{"skipped exceed bound", func(r *trainer.Report) { r.Epochs[1].SkippedGrads = 11 }, "skipped gradients 11"},
		{"negative worker timeouts", func(r *trainer.Report) { r.WorkerTimeouts = -1 }, "negative worker-side"},
		{"negative worker skipped steps", func(r *trainer.Report) { r.WorkerSkippedSteps = -1 }, "negative worker-side"},
		{"negative worker corrupt frames", func(r *trainer.Report) { r.WorkerCorruptFrames = -1 }, "negative worker-side"},
		{"negative completed rounds", func(r *trainer.Report) { r.CompletedRounds = -1 }, "negative worker-side"},
		{"negative lost reports", func(r *trainer.Report) { r.LostReports = -1 }, "lost reports"},
		{"lost reports exceed workers", func(r *trainer.Report) { r.LostReports = 3 }, "lost reports 3"},
		{"negative worker failures", func(r *trainer.Report) { r.WorkerFailures = -1 }, "worker failures -1"},
		{"worker failures exceed workers", func(r *trainer.Report) { r.WorkerFailures = 3 }, "worker failures 3"},
		{"bad sketch error", func(r *trainer.Report) { r.SketchError.MaxAbsErr = 0 }, "sketch error"},
		{
			"wire bytes exceed cluster counter",
			func(r *trainer.Report) {
				r.Metrics = &obs.Snapshot{Counters: map[string]int64{obs.CounterClusterBytesRecv: 10}}
			},
			"exceed cluster recv",
		},
		{
			"down bytes exceed sent counter",
			func(r *trainer.Report) {
				r.Metrics = &obs.Snapshot{Counters: map[string]int64{obs.CounterClusterBytesSent: 10}}
			},
			"exceed cluster sent",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := validReport()
			c.mutate(r)
			err := r.Validate()
			if err == nil {
				t.Fatalf("mutation %q passed validation", c.name)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}

// TestRunReportValidateAcceptsCounters pins the slack direction: cluster
// counters may exceed the epochs' sums (report frames land after the last
// epoch boundary) but never the reverse.
func TestRunReportValidateAcceptsCounters(t *testing.T) {
	r := validReport()
	r.Metrics = &obs.Snapshot{Counters: map[string]int64{
		obs.CounterClusterBytesRecv: 1900 + 128,
		obs.CounterClusterBytesSent: 780*int64(r.Workers) + 128,
	}}
	if err := r.Validate(); err != nil {
		t.Fatalf("report with larger counters rejected: %v", err)
	}
}

func TestRunReportFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	r := validReport()
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := trainer.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.CodecName != r.CodecName || len(back.Epochs) != 2 || back.Epochs[1] != r.Epochs[1] ||
		*back.SketchError != *r.SketchError || back.CompletedRounds != r.CompletedRounds {
		t.Fatalf("round trip lost data: %+v", back)
	}

	// Reports written while epochs still carried a simulated time ("sim_ns")
	// keep loading: the reader has no use for the field and no quarrel with it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.ReplaceAll(string(data), `"wall_ns":`, `"sim_ns": 90, "wall_ns":`)
	if strings.Count(old, `"sim_ns"`) != 2 {
		t.Fatalf("expected one sim_ns per epoch in the rewritten report:\n%s", old)
	}
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if back, err := trainer.ReadReport(oldPath); err != nil || back.Epochs[1].WallTime != r.Epochs[1].WallTime {
		t.Fatalf("report with sim_ns did not load: %v", err)
	}

	// Reports written while the stage times sat in a nested "stages" object
	// beside stored totals and compression ratios keep loading too, with
	// their rounds, wire bytes and losses intact; their stage times read 0.
	nested, err := trainer.ReadReport(filepath.Join("testdata", "report_nested_stages.json"))
	if err != nil {
		t.Fatalf("nested-stages report did not load: %v", err)
	}
	for i, e := range nested.Epochs {
		want := r.Epochs[i]
		if e.Rounds != want.Rounds || e.UpBytes != want.UpBytes || e.DownBytes != want.DownBytes ||
			e.RawUpBytes != want.RawUpBytes || e.RawDownBytes != want.RawDownBytes ||
			e.WallTime != want.WallTime || e.TestLoss != want.TestLoss || e.GatherTime != 0 {
			t.Errorf("nested-stages epoch %d read %+v, want the accounting of %+v", i, e, want)
		}
	}
	if nested.FinalLoss != r.FinalLoss || nested.Workers != r.Workers || *nested.SketchError != *r.SketchError {
		t.Errorf("nested-stages report read final loss %v, %d workers, %+v", nested.FinalLoss, nested.Workers, nested.SketchError)
	}

	// An invalid report must refuse to be written at all.
	bad := validReport()
	bad.Epochs[0].UpBytes = 0
	if err := bad.WriteFile(filepath.Join(dir, "bad.json")); err == nil {
		t.Fatal("invalid report was written")
	}
	// And a corrupted file must refuse to load.
	if err := os.WriteFile(path, []byte("{\"epochs\": []}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.ReadReport(path); err == nil {
		t.Fatal("invalid report file loaded")
	}
}
