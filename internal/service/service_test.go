package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sketchml/internal/obs"
)

// The service tests drive the control plane the way an operator does:
// through the HTTP API, plus Drain() standing in for SIGTERM. Jobs are
// tiny synthetic runs so a full lifecycle completes in well under a
// second; the "long" variants are sized to still be running when the test
// cancels or drains them.

func testLimits() Limits {
	return Limits{
		MaxConcurrent: 2,
		MaxQueue:      4,
		RetryBackoff:  10 * time.Millisecond,
	}
}

func newTestServer(t *testing.T, lim Limits, dir string) (*Server, *httptest.Server) {
	t.Helper()
	store, err := NewCheckpointStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lim, store, obs.NewRegistry())
	ts := httptest.NewServer(Handler(srv))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// quickSpec completes in a few hundred milliseconds.
func quickSpec(name string) string {
	return fmt.Sprintf(`{
		"name": %q, "dataset": "synthetic",
		"instances": 300, "dim": 600, "avg_nnz": 8,
		"model": "LR", "codec": "adam",
		"workers": 2, "epochs": 2, "seed": 7
	}`, name)
}

// longSpec runs long enough (tens of epochs) to be observed running.
func longSpec(name string) string {
	return fmt.Sprintf(`{
		"name": %q, "dataset": "synthetic",
		"instances": 2000, "dim": 4000, "avg_nnz": 20,
		"model": "LR", "codec": "sketchml",
		"workers": 2, "epochs": 50, "seed": 7
	}`, name)
}

func submit(t *testing.T, ts *httptest.Server, body string) (Status, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d", id, resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, pred func(Status) bool, what string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	var st Status
	for time.Now().Before(deadline) {
		st = getStatus(t, ts, id)
		if pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s; last status %+v", id, what, st)
	return st
}

func TestJobRunsToCompletion(t *testing.T) {
	_, ts := newTestServer(t, testLimits(), "")
	st, resp := submit(t, ts, quickSpec("quick"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if st.State != StatePending && st.State != StateRunning {
		t.Fatalf("fresh job state %q", st.State)
	}
	final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.terminal() }, "a terminal state")
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Detail)
	}
	if final.Rounds < 2 {
		t.Fatalf("done job completed %d rounds", final.Rounds)
	}
	if final.FinalLoss <= 0 {
		t.Fatalf("done job has final loss %v", final.FinalLoss)
	}

	// The per-job metrics view exposes the trainer's counters.
	resp2, err := http.Get(ts.URL + "/jobs/" + st.ID + "?metrics=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var withMetrics struct {
		Status
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&withMetrics); err != nil {
		t.Fatal(err)
	}
	if len(withMetrics.Metrics) == 0 {
		t.Fatal("metrics view is empty after a completed run")
	}

	// And the list endpoint knows the job.
	resp3, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var list []Status
	if err := json.NewDecoder(resp3.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

// TestJobRegistryRecordsEveryLayer: a job's registry is the one its run
// records into at every layer — the trainer's rounds, the cluster's bytes
// and the codec's encodes all show in the finished job's metrics view.
func TestJobRegistryRecordsEveryLayer(t *testing.T) {
	_, ts := newTestServer(t, testLimits(), "")
	st, resp := submit(t, ts, `{"name":"layers","dataset":"synthetic","instances":300,"dim":600,"avg_nnz":8,
		"model":"LR","codec":"sketchml","workers":2,"epochs":1,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.terminal() }, "a terminal state"); final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Detail)
	}
	resp2, err := http.Get(ts.URL + "/jobs/" + st.ID + "?metrics=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var view struct {
		Metrics obs.Snapshot `json:"metrics"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trainer.rounds", obs.CounterClusterBytesSent, "codec.encodes"} {
		if view.Metrics.Counters[name] <= 0 {
			t.Errorf("%s = %d in the job's metrics, want > 0; counters: %v", name, view.Metrics.Counters[name], view.Metrics.Counters)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, testLimits(), "")
	st, _ := submit(t, ts, longSpec("tocancel"))
	waitState(t, ts, st.ID, func(s Status) bool { return s.State == StateRunning }, "running")

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.terminal() }, "a terminal state")
	if final.State != StateCancelled {
		t.Fatalf("cancelled job finished %s (%s)", final.State, final.Detail)
	}
	if final.Detail != "cancelled via DELETE" {
		t.Fatalf("cancel detail %q", final.Detail)
	}
	// No RoundDeadline: the bound is the round in flight plus teardown.
	if d := time.Since(t0); d > 30*time.Second {
		t.Fatalf("cancel took %v", d)
	}

	// DELETE on a terminal job stays a 202 no-op, not an error.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second DELETE: %d", resp2.StatusCode)
	}
}

func TestDrainCheckpointsRunningJobAndRefusesNewOnes(t *testing.T) {
	srv, ts := newTestServer(t, testLimits(), "")
	st, _ := submit(t, ts, longSpec("todrain"))
	waitState(t, ts, st.ID, func(s Status) bool { return s.State == StateRunning }, "running")

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv.Drain(ctx)

	final := getStatus(t, ts, st.ID)
	if final.State != StateCancelled || !final.Drained {
		t.Fatalf("drained job: state %s drained %v (%s)", final.State, final.Drained, final.Detail)
	}
	if final.Rounds < 1 {
		t.Fatal("drained job completed no rounds")
	}
	cp, err := srv.store.Load("todrain")
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("drain left no checkpoint")
	}
	if cp.Rounds != final.Rounds {
		t.Fatalf("checkpoint at round %d, job stopped at %d", cp.Rounds, final.Rounds)
	}

	// Readiness flipped and submits are refused.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", resp.StatusCode)
	}
	if _, resp := submit(t, ts, quickSpec("late")); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d", resp.StatusCode)
	}
	// Liveness stays green: draining is healthy, just not ready.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after drain: %d", resp2.StatusCode)
	}
}

// TestDrainedJobResumesInNewServer is the crash-restart story: drain a
// running job (checkpoint lands on disk), start a fresh server over the
// same checkpoint directory, resubmit the same name, and the job must
// resume from the checkpoint — not start over — and run to done.
func TestDrainedJobResumesInNewServer(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := newTestServer(t, testLimits(), dir)
	st, _ := submit(t, ts1, longSpec("migrant"))
	waitState(t, ts1, st.ID, func(s Status) bool { return s.State == StateRunning }, "running")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv1.Drain(ctx)
	drained := getStatus(t, ts1, st.ID)
	if drained.State != StateCancelled || !drained.Drained {
		t.Fatalf("drain outcome: %+v", drained)
	}
	ts1.Close()
	srv1.Close()

	// The drained state was on disk when the job was reported drained: a
	// fresh store reads the drain's own checkpoint, not an earlier epoch's.
	cold, err := NewCheckpointStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := cold.Load("migrant")
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Rounds != drained.Rounds {
		t.Fatalf("checkpoint on disk %+v, want one at the drain's round %d", cp, drained.Rounds)
	}

	_, ts2 := newTestServer(t, testLimits(), dir)
	st2, resp := submit(t, ts2, longSpec("migrant"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d", resp.StatusCode)
	}
	final := waitState(t, ts2, st2.ID, func(s Status) bool { return s.State.terminal() }, "a terminal state")
	if final.State != StateDone {
		t.Fatalf("resumed job finished %s (%s)", final.State, final.Detail)
	}
	if !final.Resumed {
		t.Fatal("resubmitted job did not resume from the checkpoint")
	}
	if final.Rounds <= drained.Rounds {
		t.Fatalf("resumed job stopped at round %d, drain was already at %d", final.Rounds, drained.Rounds)
	}
}

// TestDrainReachesDequeuedJob: a job a runner has taken off the queue stays
// pending until its attempt begins, after a checkpoint load that may read
// the disk. A drain in that window must still reach it, so the attempt
// stops at its first round boundary instead of training on until the drain
// deadline hard-cancels it.
func TestDrainReachesDequeuedJob(t *testing.T) {
	srv, _ := newTestServer(t, testLimits(), "")
	spec, err := ParseJobSpec([]byte(quickSpec("dequeued")), srv.limits)
	if err != nil {
		t.Fatal(err)
	}
	// Registered as Submit registers it, but held out of the queue: this
	// goroutine plays the runner that dequeued it.
	reg := obs.NewRegistry()
	cfg, train, test, err := spec.Build(reg)
	if err != nil {
		t.Fatal(err)
	}
	job := newJob("job-1", *spec, reg)
	job.cfg, job.train, job.test = cfg, train, test
	srv.mu.Lock()
	srv.jobs[job.ID], srv.byName[spec.Name] = job, job
	srv.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv.Drain(ctx)
	srv.runJob(job)

	// Undrained, quickSpec trains 22 rounds and ends done.
	st := job.Status()
	if st.State != StateCancelled || !st.Drained || st.Rounds != 1 {
		t.Fatalf("dequeued job after drain: state %s drained %v at round %d (%s)",
			st.State, st.Drained, st.Rounds, st.Detail)
	}
}

// TestSubmitRefusesBeforeBuilding: a submit that a live job's name or a
// drain refuses is refused before its spec is built. Each spec here names a
// LibSVM file that does not exist, so building it would fail with
// ErrBadSpec; the refusal must come first.
func TestSubmitRefusesBeforeBuilding(t *testing.T) {
	srv, ts := newTestServer(t, testLimits(), "")
	missing := filepath.Join(t.TempDir(), "missing.libsvm")
	unbuildable := func(name string) *JobSpec {
		t.Helper()
		spec, err := ParseJobSpec([]byte(quickSpec(name)), srv.limits)
		if err != nil {
			t.Fatal(err)
		}
		spec.LibSVM = missing
		return spec
	}
	st, resp := submit(t, ts, longSpec("a"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if _, err := srv.Submit(unbuildable("a")); !errors.Is(err, ErrConflict) {
		t.Fatalf("submit under live job %s's name: %v, want ErrConflict", st.ID, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv.Drain(ctx)
	if _, err := srv.Submit(unbuildable("b")); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
}

// TestLostCheckpointDirFailsJob removes the checkpoint directory once the
// job's first checkpoint is durable. Every later flush fails behind the
// round loop; the failure must surface — at the next boundary or at the
// attempt's end — and, retries spent, the job ends failed with the save
// error, never done.
func TestLostCheckpointDirFailsJob(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, testLimits(), dir)
	st, _ := submit(t, ts, longSpec("homeless"))
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(srv.store.path("homeless")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no durable checkpoint appeared; job %+v", getStatus(t, ts, st.ID))
		}
		time.Sleep(time.Millisecond)
	}
	// A flush may be creating its temp file while the tree is removed.
	for os.RemoveAll(dir) != nil {
		time.Sleep(time.Millisecond)
	}
	final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.terminal() }, "a terminal state")
	if final.State != StateFailed || !strings.Contains(final.Detail, "save checkpoint") {
		t.Fatalf("job ended %s (%s), want failed with the save error", final.State, final.Detail)
	}
}

func TestQueueBoundConflictAndNotFound(t *testing.T) {
	lim := testLimits()
	lim.MaxConcurrent = 1
	lim.MaxQueue = 1
	_, ts := newTestServer(t, lim, "")

	// Occupy the single runner, then the single queue slot.
	run, _ := submit(t, ts, longSpec("occupant"))
	waitState(t, ts, run.ID, func(s Status) bool { return s.State == StateRunning }, "running")
	if _, resp := submit(t, ts, quickSpec("queued")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue slot submit: %d", resp.StatusCode)
	}

	// Queue full → 429.
	if _, resp := submit(t, ts, quickSpec("overflow")); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	// Live-name conflict → 409.
	if _, resp := submit(t, ts, longSpec("occupant")); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflict submit: %d, want 409", resp.StatusCode)
	}
	// Unknown job → 404 on both GET and DELETE.
	resp, err := http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/job-999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d", resp.StatusCode)
	}
}

func TestBadSpecRejected(t *testing.T) {
	_, ts := newTestServer(t, testLimits(), "")
	bad := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `{{{`},
		{"unknown field", `{"name":"a","dataset":"kdd10","model":"LR","codec":"adam","workers":1,"epochs":1,"evil":true}`},
		{"removed topology field", `{"name":"a","dataset":"kdd10","model":"LR","codec":"adam","workers":1,"epochs":1,"topology":"driver"}`},
		{"trailing data", quickSpec("a") + `{"second":"doc"}`},
		{"path dataset", `{"name":"a","dataset":"/etc/passwd","model":"LR","codec":"adam","workers":1,"epochs":1}`},
		{"traversal name", `{"name":"..","dataset":"kdd10","model":"LR","codec":"adam","workers":1,"epochs":1}`},
		{"workers over budget", `{"name":"a","dataset":"kdd10","model":"LR","codec":"adam","workers":9999,"epochs":1}`},
		{"unknown codec", `{"name":"a","dataset":"kdd10","model":"LR","codec":"gzip","workers":1,"epochs":1}`},
		{"removed codec topk-ef", `{"name":"a","dataset":"kdd10","model":"LR","codec":"topk-ef","workers":1,"epochs":1}`},
		{"oversize body", `{"name":"a","dataset":"kdd10","model":"LR","codec":"adam","workers":1,"epochs":1,` +
			`"pad":"` + strings.Repeat("x", 80<<10) + `"}`},
		// Up to 3 distinct keys an instance from a dim of 2: a generator
		// that tried would never return, inside the handler.
		{"more keys an instance than dim", `{"name":"a","dataset":"synthetic","instances":8,"dim":2,"avg_nnz":2,` +
			`"model":"LR","codec":"adam","workers":1,"epochs":1}`},
		{"entries over budget", `{"name":"a","dataset":"synthetic","instances":1000000,"dim":16777216,"avg_nnz":8388608,` +
			`"model":"LR","codec":"adam","workers":1,"epochs":1}`},
	}
	// A refused spec is refused before anything is built, so every answer
	// comes well inside the client's deadline.
	client := &http.Client{Timeout: 10 * time.Second}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := client.Post(ts.URL+"/jobs", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s: %d, want 400", tc.name, resp.StatusCode)
			}
		})
	}
	// None of those registered a job.
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 0 {
		t.Fatalf("bad specs registered jobs: %+v", list)
	}
}

// TestPendingJobCancelledBeforeRun pins the queue-to-cancelled shortcut: a
// job deleted while waiting for a runner slot must never start training.
func TestPendingJobCancelledBeforeRun(t *testing.T) {
	lim := testLimits()
	lim.MaxConcurrent = 1
	lim.MaxQueue = 2
	_, ts := newTestServer(t, lim, "")
	run, _ := submit(t, ts, longSpec("blocker"))
	waitState(t, ts, run.ID, func(s Status) bool { return s.State == StateRunning }, "running")
	queued, _ := submit(t, ts, quickSpec("victim"))
	if st := getStatus(t, ts, queued.ID); st.State != StatePending {
		t.Fatalf("queued job state %s", st.State)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitState(t, ts, queued.ID, func(s Status) bool { return s.State.terminal() }, "a terminal state")
	if st.State != StateCancelled {
		t.Fatalf("pending job finished %s", st.State)
	}
	if st.Started != "" {
		t.Fatal("cancelled pending job reports a start time — it ran")
	}
}

// TestServerCloseLeaksNothing runs a full lifecycle plus a hard close and
// requires the goroutine count to return to its baseline: runners, job
// attempts, workers, watchers and — the store writes through to disk, one
// checkpoint every epoch — the flush behind the round loop must all join.
func TestServerCloseLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, ts := newTestServer(t, testLimits(), t.TempDir())
	st, _ := submit(t, ts, longSpec("leakcheck"))
	waitState(t, ts, st.ID, func(s Status) bool { return s.State == StateRunning }, "running")
	ts.Close()
	srv.Close()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after Close: %d running, baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:n])
}
