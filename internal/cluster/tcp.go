package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// maxFrame bounds a single message to guard against corrupt length headers.
const maxFrame = 1 << 30

// recvDirectLimit is the largest frame body allocated in one shot on
// receive. Larger (still in-limit) frames grow their buffer as bytes
// actually arrive off the wire, so a corrupt or hostile length header can
// cost at most this much memory, not maxFrame.
const recvDirectLimit = 1 << 20

// tcpConn frames messages over a net.Conn with a little-endian uint32
// length prefix. Sends are safe for any number of concurrent callers: they
// are serialized under a mutex and written as a single vectored write so
// frames never interleave on the wire. Receives are serialized under their
// own mutex, but the returned message aliases the connection's receive
// buffer and is only valid until the next receive — so follow the Conn
// contract of one receiving goroutine (or copy before handing the bytes to
// another receiver).
type tcpConn struct {
	c      net.Conn
	sendMu sync.Mutex
	recvMu sync.Mutex

	// Send scratch, guarded by sendMu: the header bytes and the vectors
	// handed to writev live on the conn so a steady-state Send allocates
	// nothing. sendErr poisons the connection after a partial frame write:
	// the stream position is unknowable, so every later send would
	// interleave with the torn frame.
	sendHdr  [4]byte
	sendBufs [2][]byte
	sendVec  net.Buffers // consumed by WriteTo; a conn field so no local header moves to heap
	sendErr  error

	// Resumable receive state, guarded by recvMu. A RecvTimeout deadline
	// can expire mid-frame; the partial header/body progress is kept here
	// so the next receive continues exactly where this one stopped and the
	// byte stream never desynchronizes. body is the conn-owned receive
	// buffer: it grows in recvDirectLimit windows as bytes actually arrive
	// and is reused for every subsequent frame.
	hdr    [4]byte
	hdrGot int
	body   []byte // body[:got] is valid partial progress
	got    int    // body bytes of the in-progress frame received so far
	want   int    // body length of the in-progress frame
	inBody bool   // header parsed, body in progress
}

// WrapNetConn adapts a stream connection into a framed cluster Conn.
func WrapNetConn(c net.Conn) Conn { return &tcpConn{c: c} }

// Send implements Conn.
func (t *tcpConn) Send(msg []byte) error {
	if len(msg) > maxFrame {
		return fmt.Errorf("cluster: frame %d exceeds limit", len(msg))
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	if t.sendErr != nil {
		return t.sendErr
	}
	// One vectored write (writev on TCP) keeps header+body contiguous
	// without copying the body; the mutex keeps whole frames atomic with
	// respect to other senders. WriteTo consumes its receiver's slice
	// header, so the conn keeps the backing array (sendBufs) and hands
	// WriteTo a rebuilt header each call — through the sendVec field, not a
	// local, because WriteTo's pointer receiver would move a local to heap.
	binary.LittleEndian.PutUint32(t.sendHdr[:], uint32(len(msg)))
	t.sendBufs[0] = t.sendHdr[:]
	t.sendBufs[1] = msg
	t.sendVec = t.sendBufs[:]
	// frame atomicity is the design: sendMu must span the vectored write or concurrent senders interleave frame bytes
	n, err := t.sendVec.WriteTo(t.c)
	t.sendBufs[1] = nil // do not pin the caller's message until the next Send
	return t.checkWrite(n, int64(4+len(msg)), err)
}

// checkWrite classifies the outcome of a frame write. A failure after a
// partial write leaves the peer's byte stream mid-frame with no way to
// recover alignment, so the connection is poisoned: every later send
// fails with the same sticky error instead of silently interleaving bytes
// into the torn frame. A failure with zero bytes written leaves the
// stream aligned and the connection usable.
func (t *tcpConn) checkWrite(n, total int64, err error) error {
	if err == nil {
		return nil
	}
	if n > 0 && n < total {
		t.sendErr = fmt.Errorf("cluster: connection poisoned by partial frame write (%d of %d bytes): %w", n, total, err)
		return t.sendErr
	}
	return err
}

// Recv implements Conn.
func (t *tcpConn) Recv() ([]byte, error) { return t.RecvTimeout(0) }

// timeoutErr maps a net.Conn read-deadline expiry onto the transport's
// ErrTimeout sentinel; every other error passes through unchanged.
func timeoutErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ErrTimeout
	}
	return err
}

// clearReadDeadline removes any read deadline so a later plain Recv
// blocks. A named method rather than a deferred closure keeps the
// deadline path allocation-free.
func (t *tcpConn) clearReadDeadline() { _ = t.c.SetReadDeadline(time.Time{}) }

// RecvTimeout implements Conn via net.Conn.SetReadDeadline. On
// expiry it returns ErrTimeout with the partial frame progress saved, so a
// later receive resumes the same frame instead of reading garbage. The
// returned message aliases the conn-owned receive buffer (valid until the
// next receive); once that buffer has warmed to the frame sizes in play,
// the steady state allocates nothing.
func (t *tcpConn) RecvTimeout(d time.Duration) ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	if d > 0 {
		if err := t.c.SetReadDeadline(time.Now().Add(d)); err != nil {
			return nil, err
		}
		defer t.clearReadDeadline()
	}
	for t.hdrGot < len(t.hdr) {
		// recvMu must span header+body so concurrent receivers cannot split a frame mid-read
		n, err := t.c.Read(t.hdr[t.hdrGot:])
		t.hdrGot += n
		if err != nil && t.hdrGot < len(t.hdr) {
			return nil, timeoutErr(err)
		}
	}
	if !t.inBody {
		n := int(binary.LittleEndian.Uint32(t.hdr[:]))
		if n > maxFrame {
			return nil, fmt.Errorf("cluster: frame length %d exceeds limit", n)
		}
		t.want = n
		t.got = 0
		t.inBody = true
	}
	for t.got < t.want {
		// Grow the conn-owned buffer at most one recvDirectLimit window
		// beyond the bytes already received, so a corrupt or hostile length
		// header can cost at most recvDirectLimit of up-front memory, not
		// maxFrame — and an honest large frame grows as bytes arrive. Within
		// that window it takes quantizer.Resize's headroom, limit/4, so frame
		// sizes that wander from round to round do not regrow it at every
		// new maximum.
		limit := min(t.got+recvDirectLimit, t.want)
		if cap(t.body) < limit {
			nb := make([]byte, limit, min(limit+limit/4, t.got+recvDirectLimit))
			copy(nb, t.body[:t.got])
			t.body = nb
		}
		// same frame as the header read above; releasing recvMu between header and body would corrupt the stream
		n, err := t.c.Read(t.body[t.got:limit])
		t.got += n
		if err != nil && t.got < t.want {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("cluster: frame body: %w", timeoutErr(err))
		}
	}
	msg := t.body[:t.want:t.want]
	t.inBody = false
	t.want = 0
	t.hdrGot = 0
	return msg, nil
}

// Close implements Conn.
func (t *tcpConn) Close() error { return t.c.Close() }

// Listener accepts framed connections.
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener on addr ("127.0.0.1:0" for an ephemeral
// loopback port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr returns the bound address (useful with ephemeral ports).
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept blocks for the next incoming connection.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return WrapNetConn(c), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// Dial connects to a framed TCP listener: one connect attempt, since every
// dial in the repository follows the listener's bind.
func Dial(addr string) (Conn, error) { return DialContext(context.Background(), addr) }

// DialContext is Dial bounded by ctx: a cancelled ctx aborts the connect
// attempt with an error that wraps ctx.Err().
func DialContext(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return WrapNetConn(c), nil
}
