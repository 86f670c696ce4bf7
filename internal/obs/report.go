package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// This file defines the run-report schema: the JSON document a training run
// emits (cmd/sketchml -metrics-out). It is pure data — the trainer fills it,
// this package only owns the shape and the self-consistency rules, so every
// producer and consumer agrees on both.

// StageNs is the driver-side wall-clock breakdown of one epoch. Gather and
// Broadcast partition the round loop (so their sum can never exceed the
// epoch wall time); Compute/Encode/Decode are the summed-across-parties CPU
// meters the trainer already kept, reported for the paper's per-stage cost
// accounting (they may exceed wall time because parties run in parallel).
type StageNs struct {
	GatherNs    int64 `json:"gather_ns"`    // driver wall: waiting for + decoding worker gradients
	BroadcastNs int64 `json:"broadcast_ns"` // driver wall: encode + send + apply of the aggregate
	ComputeNs   int64 `json:"compute_ns"`   // summed worker gradient computation CPU
	EncodeNs    int64 `json:"encode_ns"`    // summed compression CPU, all parties
	DecodeNs    int64 `json:"decode_ns"`    // summed decompression CPU, all parties
	MergeNs     int64 `json:"merge_ns"`     // summed wire-to-wire merge CPU, all workers (tree)
}

// EpochReport is one epoch of a run report.
type EpochReport struct {
	Epoch        int     `json:"epoch"`
	Rounds       int     `json:"rounds"`
	UpBytes      int64   `json:"up_bytes"`       // worker→driver wire bytes
	DownBytes    int64   `json:"down_bytes"`     // driver→worker wire bytes per worker
	RawUpBytes   int64   `json:"raw_up_bytes"`   // same traffic as raw float64 key–values
	RawDownBytes int64   `json:"raw_down_bytes"` // per worker
	Compression  float64 `json:"compression"`    // RawUpBytes / UpBytes
	DecodedBytes int64   `json:"decoded_bytes"`  // codec-message bytes the driver decoded (≤ UpBytes)
	Merges       int64   `json:"merges"`         // wire-to-wire merges performed by workers
	Stages       StageNs `json:"stages"`
	WallNs       int64   `json:"wall_ns"`
	TestLoss     float64 `json:"test_loss"`
	Accuracy     float64 `json:"accuracy"`
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

// RunReport is the whole document for one training run.
type RunReport struct {
	Tool    string `json:"tool,omitempty"` // producing command, e.g. "sketchml"
	Codec   string `json:"codec"`
	Model   string `json:"model"`
	Workers int    `json:"workers"`
	// Topology names the gather aggregation shape ("star", "tree"); empty
	// means star (pre-topology reports). LevelMergeNs breaks the merge CPU
	// down by aggregation level — index 0 is the driver's direct children,
	// deeper tree levels follow.
	Topology     string  `json:"topology,omitempty"`
	LevelMergeNs []int64 `json:"level_merge_ns,omitempty"`

	Epochs []EpochReport `json:"epochs"`

	TotalUpBytes    int64         `json:"total_up_bytes"`
	TotalDownBytes  int64         `json:"total_down_bytes"` // per worker
	TotalRawUpBytes int64         `json:"total_raw_up_bytes"`
	Compression     float64       `json:"compression"` // TotalRawUpBytes / TotalUpBytes
	TotalWallNs     int64         `json:"total_wall_ns"`
	FinalLoss       float64       `json:"final_loss"`
	FinalAccuracy   float64       `json:"final_accuracy"`
	SketchError     *ErrorSummary `json:"sketch_error,omitempty"`
	Metrics         *Snapshot     `json:"metrics,omitempty"`
}

// Counter names the trainer mirrors into the registry; Validate
// cross-checks the report's wire bytes against them when present.
const (
	CounterClusterBytesRecv = "cluster.bytes_recv"
	CounterClusterBytesSent = "cluster.bytes_sent"
	// CounterTrainerHeapAllocs is the process allocation count across the
	// whole training loop — the run-level witness for the zero-allocation
	// steady state (microbenchmarks gate the per-op numbers).
	CounterTrainerHeapAllocs = "trainer.heap_allocs"
)

// Validate enforces the report's self-consistency rules:
//
//   - at least one epoch, each with positive rounds, wire bytes, and wall
//     time, and a compression ratio that matches RawUpBytes/UpBytes;
//   - driver stage times (gather + broadcast) fit inside the epoch wall
//     time — they partition the round loop, so exceeding it means a meter
//     double-counted;
//   - hierarchical-aggregation accounting is coherent: decoded bytes are
//     non-negative and never exceed the epoch's wire bytes (the driver can
//     only decode what arrived), merge meters are non-negative, and a star
//     (or untagged) report carries no merges at all;
//   - totals equal the per-epoch sums;
//   - when a metrics snapshot with cluster counters is attached, the wire
//     bytes cannot exceed what the transport layer actually counted (the
//     counters may exceed the epochs' sum: end-of-run report frames arrive
//     after the last epoch boundary).
func (r *RunReport) Validate() error {
	if len(r.Epochs) == 0 {
		return fmt.Errorf("obs: report has no epochs")
	}
	var sumUp, sumDown, sumRawUp, sumWall, sumMerges int64
	for i := range r.Epochs {
		e := &r.Epochs[i]
		if e.Rounds <= 0 {
			return fmt.Errorf("obs: epoch %d: rounds %d <= 0", e.Epoch, e.Rounds)
		}
		if e.UpBytes <= 0 || e.RawUpBytes <= 0 {
			return fmt.Errorf("obs: epoch %d: non-positive wire accounting (up %d, raw %d)",
				e.Epoch, e.UpBytes, e.RawUpBytes)
		}
		if e.WallNs <= 0 {
			return fmt.Errorf("obs: epoch %d: wall time %d <= 0", e.Epoch, e.WallNs)
		}
		if e.Compression <= 0 {
			return fmt.Errorf("obs: epoch %d: compression ratio %v <= 0", e.Epoch, e.Compression)
		}
		want := float64(e.RawUpBytes) / float64(e.UpBytes)
		if math.Abs(e.Compression-want) > 1e-9*want {
			return fmt.Errorf("obs: epoch %d: compression %v inconsistent with raw/up = %v",
				e.Epoch, e.Compression, want)
		}
		if e.Stages.GatherNs < 0 || e.Stages.BroadcastNs < 0 {
			return fmt.Errorf("obs: epoch %d: negative stage time", e.Epoch)
		}
		if e.Stages.GatherNs+e.Stages.BroadcastNs > e.WallNs {
			return fmt.Errorf("obs: epoch %d: driver stages %dns exceed wall %dns",
				e.Epoch, e.Stages.GatherNs+e.Stages.BroadcastNs, e.WallNs)
		}
		if e.DecodedBytes < 0 || e.DecodedBytes > e.UpBytes {
			return fmt.Errorf("obs: epoch %d: decoded bytes %d outside [0, up bytes %d]",
				e.Epoch, e.DecodedBytes, e.UpBytes)
		}
		if e.Merges < 0 || e.Stages.MergeNs < 0 {
			return fmt.Errorf("obs: epoch %d: negative merge accounting (merges %d, %dns)",
				e.Epoch, e.Merges, e.Stages.MergeNs)
		}
		sumUp += e.UpBytes
		sumDown += e.DownBytes
		sumRawUp += e.RawUpBytes
		sumWall += e.WallNs
		sumMerges += e.Merges
	}
	if r.Topology == "" || r.Topology == "star" {
		if sumMerges != 0 {
			return fmt.Errorf("obs: star topology report carries %d merges", sumMerges)
		}
		if len(r.LevelMergeNs) != 0 {
			return fmt.Errorf("obs: star topology report carries %d merge levels", len(r.LevelMergeNs))
		}
	}
	for lvl, ns := range r.LevelMergeNs {
		if ns < 0 {
			return fmt.Errorf("obs: negative merge time %dns at aggregation level %d", ns, lvl)
		}
	}
	if r.TotalUpBytes != sumUp || r.TotalDownBytes != sumDown || r.TotalRawUpBytes != sumRawUp {
		return fmt.Errorf("obs: totals (up %d, down %d, raw %d) disagree with epoch sums (%d, %d, %d)",
			r.TotalUpBytes, r.TotalDownBytes, r.TotalRawUpBytes, sumUp, sumDown, sumRawUp)
	}
	if r.TotalWallNs != sumWall {
		return fmt.Errorf("obs: total wall %d disagrees with epoch sum %d", r.TotalWallNs, sumWall)
	}
	wantTotal := float64(r.TotalRawUpBytes) / float64(r.TotalUpBytes)
	if r.Compression <= 0 || math.Abs(r.Compression-wantTotal) > 1e-9*wantTotal {
		return fmt.Errorf("obs: total compression %v inconsistent with raw/up = %v", r.Compression, wantTotal)
	}
	if r.Metrics != nil {
		if recv, ok := r.Metrics.Counters[CounterClusterBytesRecv]; ok && r.TotalUpBytes > recv {
			return fmt.Errorf("obs: report up bytes %d exceed cluster recv counter %d", r.TotalUpBytes, recv)
		}
		if sent, ok := r.Metrics.Counters[CounterClusterBytesSent]; ok && r.Workers > 0 &&
			r.TotalDownBytes*int64(r.Workers) > sent {
			return fmt.Errorf("obs: report down bytes %d×%d exceed cluster sent counter %d",
				r.TotalDownBytes, r.Workers, sent)
		}
	}
	if r.SketchError != nil {
		se := r.SketchError
		if se.Values < 0 || se.SignFlips < 0 || se.MeanAbsErr < 0 || se.MaxAbsErr < se.MeanAbsErr {
			return fmt.Errorf("obs: implausible sketch error summary %+v", *se)
		}
	}
	return nil
}

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// WriteFile validates the report and writes it to path.
func (r *RunReport) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ReadReportFile loads and validates a run report from path.
func ReadReportFile(path string) (*RunReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r RunReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: parse report %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return nil, fmt.Errorf("obs: report %s: %w", path, err)
	}
	return &r, nil
}
