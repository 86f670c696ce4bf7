package trainer

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
)

// The worker's half of the round protocol, driven by a scripted fake driver
// on a cluster.Pair: each row puts frames on the link that the worker must
// accept, skip or refuse, then reads the end-of-run report the worker files
// (or the error it exits with). Nothing here measures time: an expired wait
// is scripted (timeoutMark), and the deadline is long enough never to expire
// on its own.

// timeoutMark is a message the worker's end of the link turns into an
// expired wait.
var timeoutMark = []byte("expired wait")

// expiringConn is the worker's end of the link: a timeoutMark it receives
// is a wait that expired (cluster.ErrTimeout), not a message.
type expiringConn struct{ cluster.Conn }

func (c expiringConn) RecvTimeout(d time.Duration) ([]byte, error) {
	msg, err := c.Conn.RecvTimeout(d)
	if err == nil && bytes.Equal(msg, timeoutMark) {
		return nil, cluster.ErrTimeout
	}
	return msg, err
}

// fakeDriver is the driver's end of one worker's link.
type fakeDriver struct {
	t    *testing.T
	conn cluster.Conn
	agg  []byte        // a valid codec.Raw aggregate message
	rep  *workerReport // the worker's report, once it arrived
}

// next receives the worker's next frame; a report is parsed into d.rep.
// The receive is bounded so that a worker which stopped talking fails the
// row instead of hanging it.
func (d *fakeDriver) next() (kind byte, tag int, err error) {
	msg, err := d.conn.RecvTimeout(10 * time.Second)
	if err != nil {
		return 0, 0, err
	}
	kind, tag, payload, err := parseFrame(msg)
	if err != nil {
		d.t.Fatalf("worker sent a bad frame: %v", err)
	}
	if kind == frameReport {
		rep, err := parseWorkerReport(payload)
		if err != nil {
			d.t.Fatal(err)
		}
		d.rep = &rep
	}
	return kind, tag, nil
}

// grad receives the worker's next frame and fails unless it is a gradient
// tagged round.
func (d *fakeDriver) grad(round int) {
	d.t.Helper()
	kind, tag, err := d.next()
	if err != nil || kind != frameGrad || tag != round {
		d.t.Fatalf("want the worker's gradient for round %d, got kind 0x%02x round %d (err %v)", round, kind, tag, err)
	}
}

// answer receives the worker's gradient for round and broadcasts round's
// aggregate.
func (d *fakeDriver) answer(round int) {
	d.t.Helper()
	d.grad(round)
	d.send(d.bcast(round))
}

// send queues msgs on the worker's link, in order.
func (d *fakeDriver) send(msgs ...[]byte) {
	d.t.Helper()
	for _, m := range msgs {
		if err := d.conn.Send(m); err != nil {
			d.t.Fatal(err)
		}
	}
}

// bcast is the driver's broadcast of round's aggregate.
func (d *fakeDriver) bcast(round int) []byte { return appendFrame(nil, frameGrad, round, d.agg) }

// finish answers every gradient the worker still sends with its round's
// broadcast until the worker files its report or the link dies.
func (d *fakeDriver) finish() {
	for d.rep == nil {
		kind, tag, err := d.next()
		if err != nil {
			return
		}
		if kind == frameGrad {
			d.send(d.bcast(tag))
		}
	}
}

func TestWorkerProtocol(t *testing.T) {
	undecodable := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02}
	rows := []struct {
		name     string
		tolerant bool
		// script runs after a clean round 0, from the worker's round-1
		// gradient on; finish then plays the rest of the run cleanly.
		script func(d *fakeDriver)
		// wantErr is a substring of the error the worker exits with; empty:
		// the worker exits cleanly and files want.
		wantErr string
		want    workerReport
	}{
		{name: "stale frame then the current one", tolerant: true, script: func(d *fakeDriver) {
			d.grad(1)
			d.send(d.bcast(0), d.bcast(1))
			d.answer(2)
		}},
		{name: "corrupt envelope then the current one", tolerant: true, script: func(d *fakeDriver) {
			d.grad(1)
			bad := d.bcast(1)
			bad[len(bad)-1] ^= 0x10
			d.send(bad, d.bcast(1))
			d.answer(2)
		}, want: workerReport{corrupt: 1}},
		{name: "tag two rounds ahead fast-forwards", tolerant: true, script: func(d *fakeDriver) {
			d.grad(1)
			d.send(d.bcast(3))
			d.answer(4)
		}, want: workerReport{skippedSteps: 2}},
		{name: "undecodable aggregate skips the step", tolerant: true, script: func(d *fakeDriver) {
			d.grad(1)
			d.send(appendFrame(nil, frameGrad, 1, undecodable))
			d.answer(2)
		}, want: workerReport{corrupt: 1, skippedSteps: 1}},
		{name: "two expired waits then a broadcast", tolerant: true, script: func(d *fakeDriver) {
			d.grad(1)
			d.send(timeoutMark, timeoutMark, d.bcast(1))
			d.answer(2)
		}, want: workerReport{timeouts: 2}},
		{name: "maxStrikes expired waits abort", tolerant: true, script: func(d *fakeDriver) {
			d.grad(1)
			d.send(timeoutMark, timeoutMark, timeoutMark)
		}, wantErr: "3 broadcast waits expired"},
		{name: "stop frame files the report", tolerant: true, script: func(d *fakeDriver) {
			d.grad(1)
			d.send(appendFrame(nil, frameStop, 1, nil))
			if kind, _, err := d.next(); err != nil || kind != frameReport {
				d.t.Fatalf("want the report after the stop frame, got kind 0x%02x (err %v)", kind, err)
			}
		}},
		{name: "tolerant dead link aborts", tolerant: true, script: func(d *fakeDriver) {
			d.grad(1)
			_ = d.conn.Close()
		}, wantErr: cluster.ErrClosed.Error()},
		{name: "strict later tag is an error", script: func(d *fakeDriver) {
			d.grad(1)
			d.send(d.bcast(2))
		}, wantErr: "round 2"},
		{name: "strict dead link is an error", script: func(d *fakeDriver) {
			d.grad(1)
			_ = d.conn.Close()
		}, wantErr: cluster.ErrClosed.Error()},
	}
	train, _ := smallData(t)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{
				Trainable:    model.Wrap(model.LogisticRegression{}),
				CodecFactory: shared(&codec.Raw{}),
				Optimizer:    adamFactory(0.1),
				Workers:      1,
				maxStrikes:   3,
			}
			if row.tolerant {
				cfg.RoundDeadline = time.Minute
			}
			plan, err := planRun(&cfg, train)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := cfg.codec.Encode(&gradient.Sparse{Dim: plan.pDim, Keys: []uint64{1, 5}, Values: []float64{0.25, -0.5}})
			if err != nil {
				t.Fatal(err)
			}
			driverEnd, workerEnd := cluster.Pair(8)
			// Closing the pair on the way out ends a worker a failed row left
			// waiting.
			t.Cleanup(func() { _ = driverEnd.Close() })
			errc := make(chan error, 1)
			go func() { errc <- runWorker(cfg, plan, 0, expiringConn{workerEnd}, &workerLinks{}) }()

			d := &fakeDriver{t: t, conn: driverEnd, agg: agg}
			d.answer(0)
			row.script(d)
			d.finish()
			err = <-errc
			if row.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), row.wantErr) {
					t.Fatalf("worker exited with %v, want an error containing %q", err, row.wantErr)
				}
				if d.rep != nil {
					t.Errorf("a failed worker filed a report: %+v", *d.rep)
				}
				return
			}
			if err != nil {
				t.Fatalf("worker failed: %v", err)
			}
			if d.rep == nil {
				t.Fatal("worker exited without filing its report")
			}
			got := workerReport{timeouts: d.rep.timeouts, corrupt: d.rep.corrupt, skippedSteps: d.rep.skippedSteps,
				merges: d.rep.merges, aggBytes: d.rep.aggBytes}
			if got != row.want {
				t.Errorf("report counters %+v, want %+v", got, row.want)
			}
		})
	}
}
