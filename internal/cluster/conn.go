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
//
// Message lifetime: Send has taken its own copy of msg by the time it
// returns, so the caller may overwrite msg at once. A received message
// belongs to the connection and is valid until the next receive (Recv or
// RecvTimeout, whatever its outcome) on that connection; a caller that keeps
// the bytes longer copies them.
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

// memConn is one endpoint of an in-memory pair. Each direction recycles
// its frame buffers: a receive hands the message it returned last back over
// the direction's free list, and Send copies the next frame into a buffer
// from there, so a warm link allocates nothing.
type memConn struct {
	out       chan<- []byte
	in        <-chan []byte
	sendFree  <-chan []byte // buffers the peer has handed back, for Send to fill
	recvFree  chan<- []byte // where a receive hands back held
	held      []byte        // the message the last receive returned; only the receiver touches it
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
	// A direction's buffers are queued (at most buffer), held by the
	// receiver (one) or being filled by Send (one), so buffer+2 free slots
	// take every hand-back without blocking.
	abFree := make(chan []byte, buffer+2)
	baFree := make(chan []byte, buffer+2)
	closed := make(chan struct{})
	once := &sync.Once{}
	a := &memConn{out: ab, in: ba, sendFree: abFree, recvFree: baFree, closeOnce: once, closed: closed}
	b := &memConn{out: ba, in: ab, sendFree: baFree, recvFree: abFree, closeOnce: once, closed: closed}
	return a, b
}

// Send implements Conn. The message is copied into a buffer the receiver
// has handed back (or a new one), so callers may reuse theirs.
func (c *memConn) Send(msg []byte) error {
	var buf []byte
	select {
	case buf = <-c.sendFree:
	default:
	}
	if n := len(msg); cap(buf) < n {
		// Frame sizes wander from round to round: the same headroom as
		// quantizer.Resize keeps a buffer from regrowing at every new maximum.
		buf = make([]byte, n, n+n/4)
	}
	buf = append(buf[:0], msg...)
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	select {
	case c.out <- buf:
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

// release hands the message the previous receive returned back to the
// sending side: the Conn contract ends its lifetime at this receive.
func (c *memConn) release() {
	if c.held == nil {
		return
	}
	select {
	case c.recvFree <- c.held:
	default: // unreachable by the slot count; the buffer is left to the collector
	}
	c.held = nil
}

// Recv implements Conn.
func (c *memConn) Recv() ([]byte, error) { return c.RecvTimeout(0) }

// RecvTimeout implements Conn.
func (c *memConn) RecvTimeout(d time.Duration) ([]byte, error) {
	c.release()
	var expired <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		expired = timer.C
	}
	var msg []byte
	select {
	case msg = <-c.in:
	case <-c.closed:
		// Drain anything already queued before reporting closure.
		select {
		case msg = <-c.in:
		default:
			return nil, ErrClosed
		}
	case <-expired:
		return nil, ErrTimeout
	}
	c.held = msg
	return msg, nil
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
