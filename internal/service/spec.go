// Package service is the long-lived training control plane: it hosts many
// concurrent training jobs on the trainer's bulk-synchronous run loop,
// exposes a JSON/HTTP lifecycle API (submit, inspect, cancel), drains
// gracefully on SIGTERM — running jobs finish their round in flight,
// checkpoint, and the process exits cleanly — and resumes crashed or drained
// jobs from crash-safe checkpoints instead of restarting them.
//
// The design leans on the properties the rest of the repository already
// guarantees: trainer runs stop within one RoundDeadline of cancellation
// (RunContext), stop at round boundaries on drain (Config.Drain), and
// restore bit-exactly from checksummed checkpoints (Config.Resume), so the
// control plane is orchestration only — state machines, budgets, and
// supervision — with no training-protocol logic of its own.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/model"
	"sketchml/internal/obs"
	"sketchml/internal/optim"
	"sketchml/internal/trainer"
)

// Limits are the service-wide resource budgets every submitted job is
// validated against. The zero value of any field selects its default.
type Limits struct {
	// MaxWorkers caps JobSpec.Workers (default 16).
	MaxWorkers int
	// MaxEpochs caps JobSpec.Epochs (default 50).
	MaxEpochs int
	// MaxQueue bounds the number of jobs waiting to run (default 32).
	MaxQueue int
	// MaxConcurrent is the number of jobs running at once (default 2).
	MaxConcurrent int
	// MaxWallClock caps a single job's wall-clock budget; jobs may request
	// less via JobSpec.DeadlineSec but never more (default 10 minutes).
	MaxWallClock time.Duration
	// MaxBodyBytes bounds a control-API request body (default 64 KiB).
	MaxBodyBytes int64
	// RetryBudget is how many times the supervisor restarts a failed job
	// before declaring it failed for good (default 2; negative disables
	// retries).
	RetryBudget int
	// RetryBackoff is the supervisor's initial restart backoff, doubled per
	// consecutive failure (default 1s).
	RetryBackoff time.Duration
}

func (l Limits) fill() Limits {
	if l.MaxWorkers <= 0 {
		l.MaxWorkers = 16
	}
	if l.MaxEpochs <= 0 {
		l.MaxEpochs = 50
	}
	if l.MaxQueue <= 0 {
		l.MaxQueue = 32
	}
	if l.MaxConcurrent <= 0 {
		l.MaxConcurrent = 2
	}
	if l.MaxWallClock <= 0 {
		l.MaxWallClock = 10 * time.Minute
	}
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = 64 << 10
	}
	if l.RetryBudget == 0 {
		l.RetryBudget = 2
	}
	if l.RetryBudget < 0 {
		l.RetryBudget = 0
	}
	if l.RetryBackoff <= 0 {
		l.RetryBackoff = time.Second
	}
	return l
}

// JobSpec is the wire form of one training job, submitted as the JSON body
// of POST /jobs. Every field is validated against the service Limits before
// the job is admitted; unknown fields are rejected so a typo cannot
// silently select a default.
type JobSpec struct {
	// Name identifies the job and keys its checkpoints: resubmitting a spec
	// under the name of a drained or failed job resumes from that job's
	// latest checkpoint. Restricted to [A-Za-z0-9._-], max 64 chars.
	Name string `json:"name"`

	// Dataset selects a deterministic synthetic dataset: kdd10, kdd12, ctr,
	// or synthetic (custom geometry via Instances/Dim/AvgNNZ). The service
	// deliberately does not accept file paths — the control API is a network
	// surface, and a path here would read arbitrary server files.
	Dataset   string `json:"dataset"`
	Instances int    `json:"instances,omitempty"`
	Dim       uint64 `json:"dim,omitempty"`
	AvgNNZ    int    `json:"avg_nnz,omitempty"`

	Model string `json:"model"` // LR | SVM | Linear
	Codec string `json:"codec"` // sketchml | adam | adam32 | zipml8 | zipml16 | key | keyquan | onebit | topk | topk-ef

	Workers       int     `json:"workers"`
	Epochs        int     `json:"epochs"`
	BatchFraction float64 `json:"batch_fraction,omitempty"`
	LR            float64 `json:"lr,omitempty"`
	Lambda        float64 `json:"lambda,omitempty"`
	Seed          int64   `json:"seed,omitempty"`

	// Gather selects the gather shape: star (default) or tree. tree
	// requires a mergeable codec.
	Gather string `json:"gather,omitempty"`

	// RoundDeadlineMs enables the trainer's tolerant mode (quorum gather,
	// strike-based abort) and bounds every blocking receive; it is also the
	// cancellation response bound. 0 keeps strict fail-stop mode.
	RoundDeadlineMs int `json:"round_deadline_ms,omitempty"`
	// DeadlineSec is the job's wall-clock budget; 0 uses the service
	// maximum. The job fails (cancelled by deadline) when it expires.
	DeadlineSec int `json:"deadline_sec,omitempty"`
	// CheckpointEvery is the epoch period of periodic checkpoints
	// (default 1 = every epoch boundary).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// LibSVM and TCP are for Go callers (the sketchml command) and never
	// decoded: the control API refuses both keys as unknown. LibSVM is a
	// file path Build reads in place of Dataset; TCP runs the gather over
	// loopback TCP instead of in memory.
	LibSVM string `json:"-"`
	TCP    bool   `json:"-"`
}

// ErrBadSpec classifies every spec decode/validation failure, so the HTTP
// layer can map the whole family to 400 with errors.Is.
var ErrBadSpec = errors.New("invalid job spec")

// DecodeJobSpec reads and validates a JSON job spec from r, reading at most
// maxBytes (the caller typically also installs http.MaxBytesReader so the
// connection is torn down on abuse). Unknown fields, trailing garbage,
// oversized bodies, and budget violations are all ErrBadSpec.
func DecodeJobSpec(r io.Reader, maxBytes int64, lim Limits) (*JobSpec, error) {
	if maxBytes <= 0 {
		maxBytes = lim.fill().MaxBodyBytes
	}
	// Read through a hard cap: the +1 makes "exactly at the cap" and "over
	// the cap" distinguishable without ever buffering more than maxBytes+1.
	data, err := io.ReadAll(io.LimitReader(r, maxBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: read body: %v", ErrBadSpec, err)
	}
	if int64(len(data)) > maxBytes {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", ErrBadSpec, maxBytes)
	}
	return ParseJobSpec(data, lim)
}

// ParseJobSpec decodes and validates a JSON job spec held in memory.
func ParseJobSpec(data []byte, lim Limits) (*JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	// A second Decode must see EOF: two JSON documents in one body is a
	// smuggling attempt or a client bug, not a spec.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after spec", ErrBadSpec)
	}
	if err := spec.Validate(lim); err != nil {
		return nil, err
	}
	return &spec, nil
}

// nameOK reports whether a job name is safe to use as a map key and a
// checkpoint filename (no separators, no traversal, bounded length).
func nameOK(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	// "." and ".." are valid character-wise but are path navigation.
	return name != "." && name != ".."
}

// maxSyntheticEntries bounds a synthetic spec's instances × avg_nnz, the
// feature entries Build generates before the job is queued (16 B each: 1 GiB
// at the bound, 14× the benchmark's 4.8·10⁶).
const maxSyntheticEntries = 1 << 26

// Validate checks the spec against the service budgets and normalizes
// defaults in place. Every failure wraps ErrBadSpec.
func (s *JobSpec) Validate(lim Limits) error {
	lim = lim.fill()
	if !nameOK(s.Name) {
		return fmt.Errorf("%w: name %q must be 1-64 chars of [A-Za-z0-9._-]", ErrBadSpec, s.Name)
	}
	switch {
	case dataset.Preset(s.Dataset) != nil:
	case s.Dataset == "synthetic":
		if s.Instances < 8 || s.Instances > 1_000_000 {
			return fmt.Errorf("%w: synthetic instances %d out of [8, 1e6]", ErrBadSpec, s.Instances)
		}
		if s.Dim < 2 || s.Dim > 1<<24 {
			return fmt.Errorf("%w: synthetic dim %d out of [2, 2^24]", ErrBadSpec, s.Dim)
		}
		// An instance draws up to 2·avg_nnz−1 distinct keys, and dim holds
		// only dim of them (dataset.Generate refuses the same specs).
		if s.AvgNNZ < 1 || uint64(s.AvgNNZ) > s.Dim-s.Dim/2 {
			return fmt.Errorf("%w: synthetic avg_nnz %d out of [1, (dim+1)/2]", ErrBadSpec, s.AvgNNZ)
		}
		if s.Instances*s.AvgNNZ > maxSyntheticEntries {
			return fmt.Errorf("%w: synthetic instances × avg_nnz = %d over %d", ErrBadSpec, s.Instances*s.AvgNNZ, maxSyntheticEntries)
		}
	default:
		return fmt.Errorf("%w: unknown dataset %q (kdd10|kdd12|ctr|synthetic)", ErrBadSpec, s.Dataset)
	}
	if s.Workers < 1 || s.Workers > lim.MaxWorkers {
		return fmt.Errorf("%w: workers %d out of [1, %d]", ErrBadSpec, s.Workers, lim.MaxWorkers)
	}
	if s.Epochs < 1 || s.Epochs > lim.MaxEpochs {
		return fmt.Errorf("%w: epochs %d out of [1, %d]", ErrBadSpec, s.Epochs, lim.MaxEpochs)
	}
	if s.BatchFraction < 0 || s.BatchFraction > 1 {
		return fmt.Errorf("%w: batch_fraction %v out of [0, 1]", ErrBadSpec, s.BatchFraction)
	}
	if s.LR < 0 || s.Lambda < 0 {
		return fmt.Errorf("%w: lr and lambda must be non-negative", ErrBadSpec)
	}
	// Reject what the trainer would, but at submit time rather than after
	// the job is admitted and scheduled.
	if _, err := s.resolve(nil); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if s.RoundDeadlineMs < 0 || s.RoundDeadlineMs > 600_000 {
		return fmt.Errorf("%w: round_deadline_ms %d out of [0, 600000]", ErrBadSpec, s.RoundDeadlineMs)
	}
	maxSec := int(lim.MaxWallClock / time.Second)
	if s.DeadlineSec < 0 || s.DeadlineSec > maxSec {
		return fmt.Errorf("%w: deadline_sec %d out of [0, %d]", ErrBadSpec, s.DeadlineSec, maxSec)
	}
	if s.DeadlineSec == 0 {
		s.DeadlineSec = maxSec
	}
	if s.CheckpointEvery < 0 || s.CheckpointEvery > lim.MaxEpochs {
		return fmt.Errorf("%w: checkpoint_every %d out of [0, %d]", ErrBadSpec, s.CheckpointEvery, lim.MaxEpochs)
	}
	return nil
}

// resolve looks up the spec's model, codec and gather shape, and refuses a
// shape that its transport or codec cannot run. Validate and Build share it,
// so both refuse the same specs, before any data exists. The codec records
// into reg (nil: no metrics).
func (s *JobSpec) resolve(reg *obs.Registry) (trainer.Config, error) {
	mdl, err := model.ByName(s.Model)
	if err != nil {
		return trainer.Config{}, err
	}
	opts := codec.DefaultOptions()
	opts.Metrics = reg
	factory, err := codec.ByName(s.Codec, opts)
	if err != nil {
		return trainer.Config{}, err
	}
	gather, err := cluster.ParseTopology(s.Gather)
	if err != nil {
		return trainer.Config{}, err
	}
	if err := trainer.CheckTopology(gather, s.TCP, factory(), s.Workers); err != nil {
		return trainer.Config{}, err
	}
	return trainer.Config{Topology: gather, UseTCP: s.TCP, Trainable: mdl, CodecFactory: factory}, nil
}

// Build turns the spec into one run: the trainer configuration, recording
// into reg at every layer, and the dataset split 75/25 by Seed. The spec
// is resolved before any file is read or data generated, so a shape the
// run cannot take fails at once. The caller wires the lifecycle hooks
// (Drain, OnCheckpoint, Resume) — they belong to the job, not the spec.
func (s *JobSpec) Build(reg *obs.Registry) (cfg trainer.Config, train, test *dataset.Dataset, err error) {
	if cfg, err = s.resolve(reg); err != nil {
		return trainer.Config{}, nil, nil, err
	}
	lr := s.LR
	if lr == 0 {
		lr = 0.1
	}
	cfg.Optimizer = func(dim uint64) optim.Optimizer { return optim.NewAdam(lr, dim) }
	cfg.Workers, cfg.BatchFraction, cfg.Epochs = s.Workers, s.BatchFraction, s.Epochs
	cfg.Lambda, cfg.Seed = s.Lambda, s.Seed
	cfg.RoundDeadline = time.Duration(s.RoundDeadlineMs) * time.Millisecond
	cfg.CheckpointEvery = s.CheckpointEvery
	cfg.Metrics = reg

	var ds *dataset.Dataset
	switch preset := dataset.Preset(s.Dataset); {
	case s.LibSVM != "":
		var f *os.File
		if f, err = os.Open(s.LibSVM); err != nil {
			return trainer.Config{}, nil, nil, fmt.Errorf("open dataset: %w", err)
		}
		defer f.Close()
		ds, err = dataset.ParseLibSVM(f, 0)
	case preset != nil:
		ds = preset(s.Seed)
	case s.Dataset == "synthetic":
		task := dataset.Classification
		if s.Model == "Linear" {
			task = dataset.Regression
		}
		ds, err = dataset.Generate(dataset.SyntheticConfig{
			N: s.Instances, Dim: s.Dim, AvgNNZ: s.AvgNNZ,
			Task: task, NoiseStd: 0.5, Seed: s.Seed,
		})
	default:
		err = fmt.Errorf("unknown dataset %q", s.Dataset)
	}
	if err != nil {
		return trainer.Config{}, nil, nil, err
	}
	train, test = ds.Split(0.75, s.Seed)
	return cfg, train, test, nil
}
