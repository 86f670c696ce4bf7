package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sketchml/internal/obs"
	"sketchml/internal/trainer"
)

// Control-plane error classes the HTTP layer maps onto status codes.
var (
	// ErrQueueFull rejects a submit when the bounded job queue is at
	// capacity (429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining rejects submits while the service drains (503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrConflict rejects a submit whose name collides with a live job
	// (409). Terminal jobs do not conflict: resubmitting a drained or
	// failed name is exactly how a job resumes.
	ErrConflict = errors.New("service: a live job already holds this name")
	// ErrNotFound is the unknown-job-ID error (404).
	ErrNotFound = errors.New("service: no such job")

	// errJobStopped marks a run attempt that never started because the job
	// reached a terminal state while queued.
	errJobStopped = errors.New("service: job stopped before the attempt started")
)

// Server hosts training jobs: a bounded queue feeds MaxConcurrent runner
// goroutines; each runner executes one job at a time under that job's
// wall-clock budget, checkpointing at epoch boundaries and resuming from
// the latest checkpoint; a supervisor loop restarts failed attempts with
// exponential backoff up to the retry budget. Drain stops everything
// gracefully: running jobs finish their round in flight and checkpoint.
type Server struct {
	limits Limits
	store  *CheckpointStore
	reg    *obs.Registry // service-level instruments (per-job ones live on each Job)

	ready atomic.Bool

	baseCtx    context.Context // parent of every job context; Close cancels it
	baseCancel context.CancelFunc

	mu       sync.Mutex // ordering: s.mu may be held while taking a Job's mutex, never the reverse
	jobs     map[string]*Job
	byName   map[string]*Job
	nextID   int
	draining bool

	queue     chan *Job
	drainOnce sync.Once
	drainCh   chan struct{}
	wg        sync.WaitGroup

	retriesTotal *obs.Counter
	drainNs      *obs.Histogram
}

// NewServer creates a server and starts its runner pool. reg may be nil
// (instruments become no-ops).
func NewServer(lim Limits, store *CheckpointStore, reg *obs.Registry) *Server {
	lim = lim.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		limits:       lim,
		store:        store,
		reg:          reg,
		baseCtx:      ctx,
		baseCancel:   cancel,
		jobs:         make(map[string]*Job),
		byName:       make(map[string]*Job),
		queue:        make(chan *Job, lim.MaxQueue),
		drainCh:      make(chan struct{}),
		retriesTotal: reg.Counter("service.jobs.retries"),
		drainNs:      reg.Histogram("service.drain_latency_ns"),
	}
	s.ready.Store(true)
	s.wg.Add(lim.MaxConcurrent)
	for i := 0; i < lim.MaxConcurrent; i++ {
		go s.runner()
	}
	return s
}

// Ready reports whether the server accepts new jobs (false once a drain
// started) — the readiness probe's answer.
func (s *Server) Ready() bool { return s.ready.Load() }

// Submit builds the job's registry, trainer config and datasets (the spec
// must already be validated), registers the job, and enqueues it. A drain
// or a live job of the same name refuses the spec before it is built, and
// again when the job registers, since two submits of one name can both
// pass the first check while they build. The checkpoint store is consulted
// at run time, so a spec resubmitted under a drained job's name resumes
// that job.
func (s *Server) Submit(spec *JobSpec) (*Job, error) {
	s.mu.Lock()
	err := s.refusal(spec.Name)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Build the run here, in the submitter's context, not in the runner
	// goroutine: the runner must only read what Submit constructed (see
	// the field comment on Job.cfg). A side benefit is failure locality —
	// a spec Build rejects is a 400 at submit time, never an asynchronous
	// failed job.
	reg := obs.NewRegistry()
	cfg, train, test, err := spec.Build(reg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}

	s.mu.Lock()
	if err := s.refusal(spec.Name); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.nextID++
	job := newJob(fmt.Sprintf("job-%d", s.nextID), *spec, reg)
	job.cfg, job.train, job.test = cfg, train, test
	s.jobs[job.ID] = job
	s.byName[spec.Name] = job
	s.mu.Unlock()

	select {
	case s.queue <- job:
		s.updateGauges()
		return job, nil
	default:
		// Roll the registration back so the name frees up immediately.
		s.mu.Lock()
		delete(s.jobs, job.ID)
		if s.byName[spec.Name] == job {
			delete(s.byName, spec.Name)
		}
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
}

// refusal is why a job named name cannot register now, or nil. The
// caller holds s.mu.
func (s *Server) refusal(name string) error {
	if s.draining {
		return ErrDraining
	}
	if prev := s.byName[name]; prev != nil && !prev.State().terminal() {
		return fmt.Errorf("%w: %s is %s", ErrConflict, prev.ID, prev.State())
	}
	return nil
}

// Get returns the job with the given ID.
func (s *Server) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := s.jobs[id]
	if job == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return job, nil
}

// List returns every job's status, oldest first.
func (s *Server) List() []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	sort.Slice(out, func(i, k int) bool { return jobIDLess(out[i].ID, out[k].ID) })
	return out
}

// jobIDLess orders "job-N" identifiers numerically (job-2 before job-10).
func jobIDLess(a, b string) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	return a < b
}

// Cancel hard-stops a job: pending jobs go straight to cancelled, running
// jobs have their context cancelled (the trainer unblocks within one
// RoundDeadline and the round in flight). Idempotent on terminal jobs.
func (s *Server) Cancel(id string) (*Job, error) {
	job, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	job.requestCancel("cancelled via DELETE")
	s.updateGauges()
	return job, nil
}

// Drain gracefully stops the server: readiness flips immediately, queued
// jobs are cancelled, running jobs finish their current round and
// checkpoint, and every runner joins. ctx bounds the graceful phase; when
// it expires the remaining jobs are hard-cancelled (still bounded — the
// trainer guarantees prompt unblock). Safe to call once; later calls wait
// for the first drain to finish.
func (s *Server) Drain(ctx context.Context) {
	t0 := time.Now()
	s.ready.Store(false)
	s.mu.Lock()
	s.draining = true
	// Every live job is asked to drain, not only the running ones: a job a
	// runner has dequeued, or one whose retry backoff just ended, is still
	// pending until its attempt begins, and must begin it draining.
	live := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if !j.State().terminal() {
			live = append(live, j)
		}
	}
	s.mu.Unlock()
	s.drainOnce.Do(func() { close(s.drainCh) })
	for _, j := range live {
		j.requestDrain()
	}
	// Empty the queue: a drain means these will not run.
	for emptied := false; !emptied; {
		select {
		case j := <-s.queue:
			j.requestCancel("service draining")
		default:
			emptied = true
		}
	}
	s.updateGauges()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.wg.Wait()
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.requestCancel("drain deadline exceeded")
		}
		s.mu.Unlock()
		<-done
	}
	s.updateGauges()
	s.drainNs.Since(t0)
}

// Close hard-stops the server without the graceful phase: every job
// context is cancelled and the runners join — each after its attempt's
// checkpoint flush, so no write is left in flight. Intended for tests and
// fatal-error teardown; operators drain.
func (s *Server) Close() {
	s.ready.Store(false)
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.baseCancel()
	s.drainOnce.Do(func() { close(s.drainCh) })
	for {
		select {
		case j := <-s.queue:
			j.requestCancel("server closed")
		default:
			s.wg.Wait()
			s.updateGauges()
			return
		}
	}
}

// runner is one scheduler slot: it executes queued jobs until drain.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		select {
		case <-s.drainCh:
			return
		case job := <-s.queue:
			s.runJob(job)
		}
	}
}

// runJob is the supervisor for one job: run attempts, classify failures,
// retry transient ones with exponential backoff from the latest
// checkpoint, and finalize the state machine.
func (s *Server) runJob(job *Job) {
	defer s.updateGauges()
	backoff := s.limits.RetryBackoff
	for attempt := 0; ; attempt++ {
		res, err := s.runAttempt(job)
		s.updateGauges()
		switch {
		case errors.Is(err, errJobStopped):
			return
		case err == nil && res != nil && res.Drained:
			return // finishAttempt parked it cancelled-with-checkpoint
		case err == nil:
			// Clean completion: the checkpoint would only make a resubmit
			// into an instantly-complete no-op, so drop it.
			s.store.Delete(job.Spec.Name)
			return
		}
		// Attempt errored. Cancellation (DELETE, wall-clock deadline, server
		// close) is a terminal verdict, not a fault to retry.
		if ctxErr := attemptCtxErr(err); ctxErr != nil {
			if errors.Is(ctxErr, context.DeadlineExceeded) {
				job.markFailed(fmt.Errorf("wall-clock budget (%ds) exhausted", job.Spec.DeadlineSec))
			} else {
				job.markCancelled("cancelled")
			}
			return
		}
		if attempt >= s.limits.RetryBudget {
			job.markFailed(err)
			return
		}
		job.noteRetry(err)
		s.retriesTotal.Inc()
		s.updateGauges()
		if !s.retryWait(job, backoff) {
			job.markCancelled("cancelled during retry backoff")
			return
		}
		backoff *= 2
	}
}

// attemptCtxErr extracts the context verdict from a failed attempt.
func attemptCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return context.DeadlineExceeded
	case errors.Is(err, context.Canceled):
		return context.Canceled
	}
	return nil
}

// retryWait sleeps the supervisor backoff, aborting early (returning
// false) when the server drains or closes. Job-level cancellation is
// checked after the wait by the next beginAttempt.
func (s *Server) retryWait(job *Job, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return job.State() != StateCancelled
	case <-s.drainCh:
		return false
	case <-s.baseCtx.Done():
		return false
	}
}

// runAttempt executes one training attempt of the job: context with the
// job's wall-clock budget, drain channel wired to the job, checkpoints
// saved under the job's name, and the latest checkpoint (if any) restored.
// The base config and datasets were built by Submit; only the per-attempt
// lifecycle hooks are wired here.
func (s *Server) runAttempt(job *Job) (*trainer.Result, error) {
	spec := &job.Spec
	cfg := job.cfg
	cfg.Drain = job.drainCh
	// The hook stages the borrowed checkpoint and leaves the disk write to
	// run behind the next epoch; its time on the round loop is the stall,
	// observed on the store's server-wide histogram and on the job's own
	// registry, which GET /jobs/{id}?metrics=1 shows.
	jobStall := job.Metrics.Histogram("service.checkpoint.stall_ns")
	cfg.OnCheckpoint = func(cp *trainer.Checkpoint) error {
		t0 := time.Now()
		err := s.store.saveBehind(spec.Name, cp)
		stall := time.Since(t0).Nanoseconds()
		s.store.stallNs.Observe(stall)
		jobStall.Observe(stall)
		return err
	}
	cp, err := s.store.Load(spec.Name)
	if err != nil {
		job.markFailed(err)
		return nil, errJobStopped
	}
	if cp != nil {
		cfg.Resume = cp
		job.noteResumed(cp.Rounds)
	}

	ctx, cancel := context.WithTimeout(s.baseCtx, time.Duration(spec.DeadlineSec)*time.Second)
	defer cancel()
	if err := job.beginAttempt(cancel); err != nil {
		return nil, errJobStopped
	}
	s.updateGauges()

	res, err := trainer.RunContext(ctx, cfg, job.train, job.test)
	// An attempt ends when its last checkpoint is on disk: a drained job is
	// reported cancelled-with-checkpoint only once the file is renamed, and a
	// flush that failed behind the final epoch fails the attempt.
	if ferr := s.store.wait(spec.Name); ferr != nil && err == nil {
		res, err = nil, ferr
	}
	job.finishAttempt(res, err)
	return res, err
}

// updateGauges recomputes the jobs-by-state gauges. Jobs number at most
// queue+history per process lifetime; a linear walk per transition is
// noise next to a training round.
func (s *Server) updateGauges() {
	if s.reg == nil {
		return
	}
	var counts [6]int64
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.State() {
		case StatePending:
			counts[0]++
		case StateRunning:
			counts[1]++
		case StateDraining:
			counts[2]++
		case StateDone:
			counts[3]++
		case StateFailed:
			counts[4]++
		case StateCancelled:
			counts[5]++
		}
	}
	s.mu.Unlock()
	names := [...]string{"pending", "running", "draining", "done", "failed", "cancelled"}
	for i, n := range names {
		s.reg.Gauge("service.jobs." + n).Set(counts[i])
	}
}
