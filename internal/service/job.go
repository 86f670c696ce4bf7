package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sketchml/internal/dataset"
	"sketchml/internal/obs"
	"sketchml/internal/trainer"
)

// State is a job's position in its lifecycle state machine:
//
//	pending ──▶ running ──▶ done
//	   │           │  ├───▶ failed     (error, retries exhausted)
//	   │           │  └───▶ cancelled  (DELETE /jobs/{id})
//	   │           └──▶ draining ──▶ cancelled  (SIGTERM: checkpoint, stop)
//	   └──────────────────▶ cancelled  (cancelled before it ran)
//
// Transitions happen only through Job methods under the job mutex, so an
// observer (GET /jobs/{id}) always sees a consistent state + detail pair.
type State string

// The lifecycle states.
const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDraining  State = "draining"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether no further transitions can leave s.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted training job and its live lifecycle state.
type Job struct {
	// ID is the server-assigned identity ("job-7"); Spec.Name is the
	// user-chosen checkpoint key. Both are immutable after creation.
	ID   string
	Spec JobSpec

	// Metrics is this job's private registry, isolated from other jobs.
	// Submit hands it to Build, so the trainer, codec and cluster layers
	// of every attempt record here.
	Metrics *obs.Registry

	// cfg, train and test are built by Submit in the caller's context,
	// before any runner goroutine can see the job; the queue handoff orders
	// that construction before every read, and the runner only reads them.
	cfg         trainer.Config
	train, test *dataset.Dataset

	// mu guards status, which every transition writes in place, its times
	// formatted once as the transition happens; Status returns a copy.
	mu     sync.Mutex
	status Status

	// cancel hard-stops the running attempt (ctx cancellation: the trainer
	// aborts within one RoundDeadline). drainOnce/drainCh request the
	// graceful version: finish the round in flight, checkpoint, exit.
	cancel    context.CancelFunc
	drainOnce sync.Once
	drainCh   chan struct{}
}

func newJob(id string, spec JobSpec, reg *obs.Registry) *Job {
	return &Job{
		ID:      id,
		Spec:    spec,
		Metrics: reg,
		status:  Status{ID: id, Name: spec.Name, State: StatePending, Submitted: now()},
		drainCh: make(chan struct{}),
	}
}

// now is the current time as Status carries it.
func now() string { return time.Now().Format(time.RFC3339Nano) }

// Status is the JSON view of a job returned by the control API.
type Status struct {
	ID        string  `json:"id"`
	Name      string  `json:"name"`
	State     State   `json:"state"`
	Detail    string  `json:"detail,omitempty"` // human-readable cause of the last transition
	Submitted string  `json:"submitted"`
	Started   string  `json:"started,omitempty"`
	Finished  string  `json:"finished,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	Resumed   bool    `json:"resumed,omitempty"`
	Drained   bool    `json:"drained,omitempty"`
	Rounds    int     `json:"completed_rounds,omitempty"` // CompletedRounds of the last finished attempt
	FinalLoss float64 `json:"final_loss,omitempty"`
}

// Status snapshots the job under its mutex.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.State
}

// requestDrain asks the running attempt — or, for a pending job, the
// attempt it begins next — to stop gracefully at its next round boundary
// (checkpoint included). Idempotent; a no-op for jobs that already reached
// a terminal state.
func (j *Job) requestDrain() {
	j.mu.Lock()
	if j.status.State == StateRunning {
		j.status.State = StateDraining
		j.status.Detail = "drain requested"
	}
	j.mu.Unlock()
	j.drainOnce.Do(func() { close(j.drainCh) })
}

// requestCancel hard-stops the job: a pending job goes straight to
// cancelled (the scheduler skips it), a running one has its context
// cancelled and transitions once the runner observes the stop. Reports
// whether the request did anything (false for terminal jobs).
func (j *Job) requestCancel(reason string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status.State {
	case StatePending:
		j.status.State = StateCancelled
		j.status.Detail = reason
		j.status.Finished = now()
		return true
	case StateRunning, StateDraining:
		j.status.Detail = reason
		if j.cancel != nil {
			j.cancel()
		}
		return true
	default:
		return false
	}
}

// beginAttempt moves a pending (or retried) job into running and arms its
// cancellation handle. It fails if the job was cancelled while queued.
func (j *Job) beginAttempt(cancel context.CancelFunc) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State.terminal() {
		return fmt.Errorf("service: job %s is %s", j.ID, j.status.State)
	}
	if j.status.Started == "" {
		j.status.Started = now()
	}
	j.status.State = StateRunning
	j.status.Detail = ""
	select {
	case <-j.drainCh:
		j.status.State = StateDraining
		j.status.Detail = "drain requested"
	default:
	}
	j.cancel = cancel
	return nil
}

// finishAttempt records one run attempt's outcome and decides the final
// state. A drained run ends cancelled-with-checkpoint (resubmission
// resumes it); an undrained clean run is done; an error leaves the final
// classification (failed vs retry) to the supervisor, which calls
// markFailed or re-queues.
func (j *Job) finishAttempt(res *trainer.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancel = nil
	if res != nil {
		j.status.Rounds = res.CompletedRounds
		j.status.FinalLoss = res.FinalLoss
		j.status.Drained = j.status.Drained || res.Drained
	}
	switch {
	case err == nil && res != nil && res.Drained:
		j.status.State = StateCancelled
		j.status.Detail = "drained at round boundary; checkpoint saved"
		j.status.Finished = now()
	case err == nil:
		j.status.State = StateDone
		j.status.Detail = ""
		j.status.Finished = now()
	}
	// err != nil: state stays running/draining; the supervisor decides.
}

// markFailed finalizes an errored job once the supervisor gives up.
func (j *Job) markFailed(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State.terminal() {
		return
	}
	j.status.State = StateFailed
	j.status.Detail = err.Error()
	j.status.Finished = now()
}

// markCancelled finalizes a job whose run attempt was stopped by context
// cancellation (DELETE or deadline).
func (j *Job) markCancelled(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State.terminal() {
		return
	}
	j.status.State = StateCancelled
	if j.status.Detail == "" {
		j.status.Detail = reason
	}
	j.status.Finished = now()
}

// noteRetry counts a supervisor restart and flips the job back to pending
// while it waits for its slot.
func (j *Job) noteRetry(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State.terminal() {
		return
	}
	j.status.Retries++
	j.status.State = StatePending
	j.status.Detail = fmt.Sprintf("retrying after: %v", err)
}

// noteResumed records that this job restored a checkpoint (for the status
// view and tests).
func (j *Job) noteResumed(rounds int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status.Resumed = true
	j.status.Detail = fmt.Sprintf("resumed from checkpoint at round %d", rounds)
}
