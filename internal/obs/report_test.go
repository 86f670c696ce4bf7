package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validReport builds a minimal self-consistent report the mutation tests
// below perturb one field at a time.
func validReport() *RunReport {
	return &RunReport{
		Tool:    "test",
		Codec:   "SketchML",
		Model:   "LR",
		Workers: 2,
		Epochs: []EpochReport{
			{
				Epoch: 0, Rounds: 10,
				UpBytes: 1000, DownBytes: 400, RawUpBytes: 8000, RawDownBytes: 3200,
				Compression: 8.0,
				Stages:      StageNs{GatherNs: 30, BroadcastNs: 20, ComputeNs: 500, EncodeNs: 40, DecodeNs: 35},
				WallNs:      100, TestLoss: 0.5,
			},
			{
				Epoch: 1, Rounds: 10,
				UpBytes: 900, DownBytes: 380, RawUpBytes: 7200, RawDownBytes: 3000,
				Compression: 8.0,
				Stages:      StageNs{GatherNs: 25, BroadcastNs: 25, ComputeNs: 480, EncodeNs: 38, DecodeNs: 33},
				WallNs:      95, TestLoss: 0.4,
			},
		},
		TotalUpBytes: 1900, TotalDownBytes: 780, TotalRawUpBytes: 15200,
		Compression: 8.0, TotalWallNs: 195,
		FinalLoss:   0.4,
		SketchError: &ErrorSummary{Rounds: 20, Values: 4000, MeanAbsErr: 0.001, MaxAbsErr: 0.01},
	}
}

func TestRunReportValidateAccepts(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
}

// TestRunReportValidateRejects mutates one consistency invariant at a time
// and demands a loud failure mentioning the right thing.
func TestRunReportValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*RunReport)
		wantSub string
	}{
		{"no epochs", func(r *RunReport) { r.Epochs = nil }, "no epochs"},
		{"zero rounds", func(r *RunReport) { r.Epochs[0].Rounds = 0 }, "rounds"},
		{"zero up bytes", func(r *RunReport) { r.Epochs[0].UpBytes = 0 }, "wire accounting"},
		{"zero wall", func(r *RunReport) { r.Epochs[0].WallNs = 0 }, "wall"},
		{"zero compression", func(r *RunReport) { r.Epochs[0].Compression = 0 }, "compression"},
		{"ratio mismatch", func(r *RunReport) { r.Epochs[0].Compression = 3 }, "inconsistent"},
		{"stages exceed wall", func(r *RunReport) { r.Epochs[1].Stages.GatherNs = 90 }, "exceed wall"},
		{"negative stage", func(r *RunReport) { r.Epochs[0].Stages.BroadcastNs = -1 }, "negative stage"},
		{"totals drift", func(r *RunReport) { r.TotalUpBytes = 1 }, "disagree"},
		{"wall total drift", func(r *RunReport) { r.TotalWallNs = 1 }, "wall"},
		{"total ratio drift", func(r *RunReport) { r.Compression = 2 }, "total compression"},
		{"bad sketch error", func(r *RunReport) { r.SketchError.MaxAbsErr = 0 }, "sketch error"},
		{
			"wire bytes exceed cluster counter",
			func(r *RunReport) {
				r.Metrics = &Snapshot{Counters: map[string]int64{CounterClusterBytesRecv: 10}}
			},
			"exceed cluster recv",
		},
		{
			"down bytes exceed sent counter",
			func(r *RunReport) {
				r.Metrics = &Snapshot{Counters: map[string]int64{CounterClusterBytesSent: 10}}
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
	r.Metrics = &Snapshot{Counters: map[string]int64{
		CounterClusterBytesRecv: r.TotalUpBytes + 128,
		CounterClusterBytesSent: r.TotalDownBytes*int64(r.Workers) + 128,
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
	back, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Codec != r.Codec || back.TotalUpBytes != r.TotalUpBytes || len(back.Epochs) != 2 {
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
	if back, err := ReadReportFile(oldPath); err != nil || back.Epochs[1].WallNs != r.Epochs[1].WallNs {
		t.Fatalf("report with sim_ns did not load: %v", err)
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
	if _, err := ReadReportFile(path); err == nil {
		t.Fatal("invalid report file loaded")
	}
}
