package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/model"
	"sketchml/internal/obs"
	"sketchml/internal/optim"
	"sketchml/internal/service"
	"sketchml/internal/trainer"
)

// serviceStack is the product's front door as a client reaches it: the
// HTTP handler over a one-job-at-a-time server whose checkpoint store
// writes through to disk.
type serviceStack struct {
	reg   *obs.Registry // the store's instruments: exact checkpoint sums
	store *service.CheckpointStore
	srv   *service.Server
	ts    *httptest.Server
}

func newServiceStack(dir string) (*serviceStack, error) {
	reg := obs.NewRegistry()
	store, err := service.NewCheckpointStore(dir, reg)
	if err != nil {
		return nil, err
	}
	srv := service.NewServer(service.Limits{MaxConcurrent: 1}, store, reg)
	return &serviceStack{reg: reg, store: store, srv: srv, ts: httptest.NewServer(service.Handler(srv))}, nil
}

// close stops the server (cancelling whatever still runs) and waits for
// its runners.
func (s *serviceStack) close() {
	s.ts.Close()
	s.srv.Close()
}

func jobSpec(name string) service.JobSpec {
	return service.JobSpec{
		Name: name, Dataset: "synthetic", Instances: instances, Dim: dim, AvgNNZ: avgNNZ,
		Model: "LR", Codec: "sketchml", Workers: workers, Epochs: epochs,
		BatchFraction: batchFraction, Lambda: lambda, Seed: serviceSeed, CheckpointEvery: 1,
	}
}

func (s *serviceStack) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// submit POSTs the job; the call returns once the server has built the
// job's dataset and queued it.
func (s *serviceStack) submit(name string) (service.Status, error) {
	body, err := json.Marshal(jobSpec(name))
	if err != nil {
		return service.Status{}, err
	}
	var st service.Status
	err = s.do(http.MethodPost, "/jobs", body, &st)
	return st, err
}

func terminal(st service.State) bool {
	return st == service.StateDone || st == service.StateFailed || st == service.StateCancelled
}

// await polls the job until it reaches a terminal state and returns the
// final status with each poll's latency in microseconds.
func (s *serviceStack) await(id string) (service.Status, []float64, error) {
	var pollUs []float64
	for {
		var st service.Status
		t0 := time.Now()
		if err := s.do(http.MethodGet, "/jobs/"+id, nil, &st); err != nil {
			return st, pollUs, err
		}
		pollUs = append(pollUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if terminal(st.State) {
			return st, pollUs, nil
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// serviceJob is one job's outcome as the HTTP client and the server's
// registries report it.
type serviceJob struct {
	jobStats
	setupS         float64 // building the stack and the POST
	submitMs       float64 // the POST alone
	queueToStartMs float64
	pollUs         []float64
	turnaroundS    float64 // Submitted → Finished
	ckptWrites     int64
	ckptWriteNs    int64
	ckptBytes      int64
}

func parseTime(s string) (time.Time, error) { return time.Parse(time.RFC3339Nano, s) }

// runServiceJob submits one job to a fresh stack, waits for it and tears
// the stack down.
func runServiceJob(dir, name string) (*serviceJob, error) {
	t0 := time.Now()
	stack, err := newServiceStack(dir)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	t1 := time.Now()
	st, err := stack.submit(name)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	j, err := stack.finish(st.ID)
	if err != nil {
		return nil, err
	}
	j.setupS = t2.Sub(t0).Seconds()
	j.submitMs = float64(t2.Sub(t1).Nanoseconds()) / 1e6
	return j, nil
}

// finish waits for a submitted job and gathers its numbers.
func (s *serviceStack) finish(id string) (*serviceJob, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, pollUs, err := s.await(id)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if st.State != service.StateDone {
		return nil, fmt.Errorf("service job %s ended %s: %s", id, st.State, st.Detail)
	}
	submitted, err := parseTime(st.Submitted)
	if err != nil {
		return nil, err
	}
	started, err := parseTime(st.Started)
	if err != nil {
		return nil, err
	}
	finished, err := parseTime(st.Finished)
	if err != nil {
		return nil, err
	}
	var full struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := s.do(http.MethodGet, "/jobs/"+id+"?metrics=1", nil, &full); err != nil {
		return nil, err
	}
	snap := full.Metrics
	j := &serviceJob{
		jobStats: jobStats{
			rounds:     st.Rounds,
			wallS:      finished.Sub(started).Seconds(),
			finalLoss:  st.FinalLoss,
			upBytes:    snap.Counters[obs.CounterClusterBytesRecv],
			downBytes:  snap.Counters[obs.CounterClusterBytesSent],
			allocBytes: after.TotalAlloc - before.TotalAlloc,
			failedOps:  st.Retries + int(snap.Counters["trainer.skipped_grads"]),
		},
		queueToStartMs: float64(started.Sub(submitted).Nanoseconds()) / 1e6,
		pollUs:         pollUs,
		turnaroundS:    finished.Sub(submitted).Seconds(),
		ckptWrites:     s.reg.Histogram("service.checkpoint.write_ns").Count(),
		ckptWriteNs:    s.reg.Histogram("service.checkpoint.write_ns").Sum(),
		ckptBytes:      s.reg.Counter("service.checkpoint.bytes").Value(),
	}
	for _, sp := range snap.Spans {
		if sp.Name == "epoch" {
			j.epochWallS = append(j.epochWallS, float64(sp.DurNs)/1e9)
		}
	}
	if j.rounds != totalRounds {
		return nil, fmt.Errorf("service job completed %d rounds, want %d", j.rounds, totalRounds)
	}
	if j.ckptWrites != epochs {
		return nil, fmt.Errorf("service job wrote %d checkpoints, want one per epoch (%d)", j.ckptWrites, epochs)
	}
	return j, nil
}

// serviceSetup is one timed set-up of the service workload: building the
// stack and the POST that builds the job's dataset. The job it queued is
// cancelled and the stack torn down again.
func serviceSetup(dir, name string) (seconds float64, err error) {
	t0 := time.Now()
	stack, err := newServiceStack(dir)
	if err != nil {
		return 0, err
	}
	defer stack.close()
	st, err := stack.submit(name)
	if err != nil {
		return 0, err
	}
	seconds = time.Since(t0).Seconds()
	var cancelled service.Status
	if err := stack.do(http.MethodDelete, "/jobs/"+st.ID, nil, &cancelled); err != nil {
		return 0, err
	}
	if _, _, err := stack.await(st.ID); err != nil {
		return 0, err
	}
	return seconds, nil
}

// twinInputs rebuilds, through the dataset package's public functions, the
// dataset the service builds for jobSpec.
func twinInputs() (*inputs, error) {
	t0 := time.Now()
	ds, err := dataset.Generate(dataset.SyntheticConfig{
		N: instances, Dim: dim, AvgNNZ: avgNNZ,
		Task: dataset.Classification, NoiseStd: noiseStd, Seed: serviceSeed,
	})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	train, test := ds.Split(0.75, serviceSeed)
	return &inputs{train: train, test: test, generateS: t1.Sub(t0).Seconds(), splitS: time.Since(t1).Seconds()}, nil
}

const spanCheckpoint = "service.checkpoint_save"

// twinConfig is the trainer configuration the service derives from
// jobSpec, with the timing wrappers in its seams: the service builds its
// config behind the HTTP API, where no wrapper can be installed, so the
// traced half of the service workload runs this in-process twin and checks
// that it lands on the same loss and the same bytes as the HTTP job.
func twinConfig(tr *tracer, store *service.CheckpointStore, reg *obs.Registry, lastCp **trainer.Checkpoint) trainer.Config {
	build := func() fullCodec { return codec.MustSketchML(codec.DefaultOptions()) }
	return trainer.Config{
		Trainable:     &tracedTrainable{inner: model.Wrap(model.LogisticRegression{}), tr: tr},
		CodecFactory:  tracedCodecFactory(build, tr),
		Optimizer:     func(d uint64) optim.Optimizer { return &tracedOptimizer{inner: optim.NewAdam(learningRate, d), tr: tr} },
		Workers:       workers,
		BatchFraction: batchFraction,
		Epochs:        epochs,
		Lambda:        lambda,
		Seed:          serviceSeed,
		Metrics:       reg,
		OnCheckpoint: func(cp *trainer.Checkpoint) error {
			t0 := time.Now()
			err := store.Save("twin", cp)
			t1 := time.Now()
			tr.record(spanCheckpoint, 0, t0, t1, 0, 0)
			*lastCp = cp
			tr.own(t1)
			return err
		},
	}
}
