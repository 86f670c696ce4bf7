package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sketchml/internal/service"
)

// TestServeRetryBudgetDefault: with no -serve-retry-budget on the command
// line a served job gets the service's default of two supervisor restarts.
// The checkpoint directory is gone before the job starts, so every attempt
// fails on a checkpoint save and is restarted until the budget is spent.
func TestServeRetryBudgetDefault(t *testing.T) {
	fs := flag.NewFlagSet("sketchml", flag.ContinueOnError)
	so := registerServeFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := service.NewCheckpointStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	lim := so.limits()
	lim.RetryBackoff = time.Millisecond // the budget is under test, not the backoff
	srv := service.NewServer(lim, store, nil)
	defer srv.Close()

	spec := service.JobSpec{
		Name: "retried", Dataset: "synthetic", Instances: 300, Dim: 600, AvgNNZ: 8,
		Model: "LR", Codec: "adam", Workers: 2, Epochs: 3, Seed: 7,
	}
	if err := spec.Validate(lim); err != nil {
		t.Fatal(err)
	}
	job, err := srv.Submit(&spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	st := job.Status()
	for st.State != service.StateDone && st.State != service.StateFailed && st.State != service.StateCancelled {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", st)
		}
		time.Sleep(time.Millisecond)
		st = job.Status()
	}
	if st.Retries != 2 {
		t.Fatalf("job ended %s after %d retries (%s), want the default budget of 2", st.State, st.Retries, st.Detail)
	}
}
