// Package cluster provides the distributed-training runtime that stands in
// for the paper's Spark driver/executor deployment: framed point-to-point
// connections (in-memory for speed, real TCP for integration), per-link
// byte accounting, and an analytic network cost model that converts the
// measured message sizes into epoch-time estimates for cluster sizes we
// cannot physically reproduce on one machine (see DESIGN.md,
// "Substitutions").
package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("cluster: connection closed")

// ErrTimeout is returned by RecvTimeout when the deadline expires before a
// full message arrives. The connection stays usable: a partially received
// frame is resumed by the next receive.
var ErrTimeout = errors.New("cluster: receive timed out")

// Conn is a bidirectional, message-oriented (framed) connection.
// Send and Recv are each safe for one concurrent caller. Receives can be
// bounded in time, the seam that lets the trainer survive hung or
// partitioned peers: no receive need ever block unboundedly.
type Conn interface {
	// Send transmits one message.
	Send(msg []byte) error
	// Recv blocks for the next message.
	Recv() ([]byte, error)
	// RecvTimeout blocks for the next message for at most d (d <= 0 blocks
	// like Recv). On expiry it returns ErrTimeout and leaves the connection
	// usable — in particular a frame caught mid-transfer is resumed, not
	// corrupted, by the next receive.
	RecvTimeout(d time.Duration) ([]byte, error)
	// Close releases the connection; pending Recv calls fail.
	Close() error
}

// memConn is one endpoint of an in-memory pair.
type memConn struct {
	out       chan<- []byte
	in        <-chan []byte
	closeOnce *sync.Once
	closed    chan struct{}
}

// Pair returns two connected in-memory endpoints with the given channel
// buffer depth.
func Pair(buffer int) (Conn, Conn) {
	if buffer < 0 {
		buffer = 0
	}
	ab := make(chan []byte, buffer)
	ba := make(chan []byte, buffer)
	closed := make(chan struct{})
	once := &sync.Once{}
	a := &memConn{out: ab, in: ba, closeOnce: once, closed: closed}
	b := &memConn{out: ba, in: ab, closeOnce: once, closed: closed}
	return a, b
}

// Send implements Conn. The message is copied so callers may reuse buffers.
func (c *memConn) Send(msg []byte) error {
	cp := append([]byte(nil), msg...)
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	select {
	case c.out <- cp:
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

// Recv implements Conn.
func (c *memConn) Recv() ([]byte, error) {
	select {
	case msg := <-c.in:
		return msg, nil
	case <-c.closed:
		// Drain anything already queued before reporting closure.
		select {
		case msg := <-c.in:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	}
}

// RecvTimeout implements Conn.
func (c *memConn) RecvTimeout(d time.Duration) ([]byte, error) {
	if d <= 0 {
		return c.Recv()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case msg := <-c.in:
		return msg, nil
	case <-c.closed:
		select {
		case msg := <-c.in:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	case <-timer.C:
		return nil, ErrTimeout
	}
}

// Close implements Conn. Closing either endpoint closes the pair.
func (c *memConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// Stats tallies traffic over a connection.
type Stats struct {
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
}

// CountingConn wraps a Conn and tallies traffic. Safe for the same
// concurrency contract as the underlying Conn. When built with
// NewCountingObserved it additionally mirrors every tally into the shared
// ConnMetrics counters, aggregating across all links of a run.
type CountingConn struct {
	inner     Conn
	met       ConnMetrics
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	msgsSent  atomic.Int64
	msgsRecv  atomic.Int64
}

// NewCounting wraps inner with traffic accounting.
func NewCounting(inner Conn) *CountingConn {
	return &CountingConn{inner: inner}
}

// NewCountingObserved wraps inner with traffic accounting that also feeds
// the shared metrics counters (the zero ConnMetrics records nothing).
func NewCountingObserved(inner Conn, met ConnMetrics) *CountingConn {
	return &CountingConn{inner: inner, met: met}
}

// Send implements Conn.
func (c *CountingConn) Send(msg []byte) error {
	if err := c.inner.Send(msg); err != nil {
		return err
	}
	c.bytesSent.Add(int64(len(msg)))
	c.msgsSent.Add(1)
	c.met.BytesSent.Add(int64(len(msg)))
	c.met.MsgsSent.Inc()
	return nil
}

// Recv implements Conn.
func (c *CountingConn) Recv() ([]byte, error) {
	msg, err := c.inner.Recv()
	if err != nil {
		return nil, err
	}
	c.bytesRecv.Add(int64(len(msg)))
	c.msgsRecv.Add(1)
	c.met.BytesRecv.Add(int64(len(msg)))
	c.met.MsgsRecv.Inc()
	return msg, nil
}

// RecvTimeout implements Conn, delegating the deadline to the wrapped
// connection. Expired deadlines feed the recv-timeout counter so degraded
// rounds are visible in the metrics.
func (c *CountingConn) RecvTimeout(d time.Duration) ([]byte, error) {
	msg, err := c.inner.RecvTimeout(d)
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			c.met.RecvTimeouts.Inc()
		}
		return nil, err
	}
	c.bytesRecv.Add(int64(len(msg)))
	c.msgsRecv.Add(1)
	c.met.BytesRecv.Add(int64(len(msg)))
	c.met.MsgsRecv.Inc()
	return msg, nil
}

// Close implements Conn.
func (c *CountingConn) Close() error { return c.inner.Close() }

// Stats returns a snapshot of the tallies.
func (c *CountingConn) Stats() Stats {
	return Stats{
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
	}
}
