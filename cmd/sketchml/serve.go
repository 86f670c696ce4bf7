package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sketchml/internal/obs"
	"sketchml/internal/service"
)

// serveOptions carries the -serve flag family (see registerServeFlags).
type serveOptions struct {
	addr          string
	checkpointDir string
	maxWorkers    int
	maxEpochs     int
	maxQueue      int
	maxConcurrent int
	maxWallClock  time.Duration
	retryBudget   int
	drainTimeout  time.Duration
}

// registerServeFlags defines the -serve flags on fs; each budget's 0 means
// service.Limits' default.
func registerServeFlags(fs *flag.FlagSet) *serveOptions {
	o := &serveOptions{}
	fs.StringVar(&o.addr, "serve", "", "run as a long-lived training service on this address (e.g. 127.0.0.1:8080); training flags are ignored, jobs arrive via the HTTP control API")
	fs.StringVar(&o.checkpointDir, "checkpoint-dir", "", "serve mode: persist job checkpoints to this directory (crash-safe; empty = in-memory only)")
	fs.IntVar(&o.maxWorkers, "serve-max-workers", 0, "serve mode: per-job worker budget (0 = default)")
	fs.IntVar(&o.maxEpochs, "serve-max-epochs", 0, "serve mode: per-job epoch budget (0 = default)")
	fs.IntVar(&o.maxQueue, "serve-max-queue", 0, "serve mode: pending-job queue bound (0 = default)")
	fs.IntVar(&o.maxConcurrent, "serve-max-concurrent", 0, "serve mode: jobs running at once (0 = default)")
	fs.DurationVar(&o.maxWallClock, "serve-max-wallclock", 0, "serve mode: per-job wall-clock budget cap (0 = default)")
	fs.IntVar(&o.retryBudget, "serve-retry-budget", 0, "serve mode: supervisor restarts per failed job (0 = default (2), negative disables)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "serve mode: how long a SIGTERM drain waits for running jobs to checkpoint before hard-cancelling")
	return o
}

func (o *serveOptions) limits() service.Limits {
	return service.Limits{
		MaxWorkers:    o.maxWorkers,
		MaxEpochs:     o.maxEpochs,
		MaxQueue:      o.maxQueue,
		MaxConcurrent: o.maxConcurrent,
		MaxWallClock:  o.maxWallClock,
		RetryBudget:   o.retryBudget,
	}
}

// runServe hosts the training control plane until SIGTERM/SIGINT, then
// drains: readiness flips, running jobs finish their round in flight and
// checkpoint, and the process exits cleanly. The HTTP listener keeps
// serving during the drain so probes and job status stay observable.
func runServe(o serveOptions) error {
	reg := obs.NewRegistry()
	store, err := service.NewCheckpointStore(o.checkpointDir, reg)
	if err != nil {
		return err
	}
	srv := service.NewServer(o.limits(), store, reg)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return fmt.Errorf("serve listen: %w", err)
	}
	httpSrv := &http.Server{Handler: service.Handler(srv)}
	fmt.Printf("serving control plane on http://%s (checkpoints: %s)\n",
		ln.Addr(), orMemory(o.checkpointDir))

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second SIGTERM kills hard

	fmt.Printf("draining (budget %s): waiting for running jobs to checkpoint\n", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	srv.Drain(drainCtx)
	cancel()
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("serve shutdown: %w", err)
	}
	fmt.Println("drained cleanly")
	return nil
}

func orMemory(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
