package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// flakyConn is a net.Conn stub whose Writes succeed until failAfter total
// bytes have been accepted; the write that crosses the threshold is short
// (the bytes up to the threshold are "on the wire") and returns failErr.
// After the failure subsequent writes succeed again, which is exactly the
// dangerous case poisoning exists for: the stream is torn mid-frame but
// the transport looks healthy.
type flakyConn struct {
	net.Conn // panics on anything not overridden
	mu       sync.Mutex
	wrote    bytes.Buffer
	accepted int
	failAt   int // fail the write that would cross this many total bytes; <0 never
	failErr  error
}

func (f *flakyConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failAt >= 0 && f.accepted+len(p) > f.failAt {
		short := f.failAt - f.accepted
		if short < 0 {
			short = 0
		}
		f.wrote.Write(p[:short])
		f.accepted += short
		f.failAt = -1 // subsequent writes "heal"
		return short, f.failErr
	}
	f.wrote.Write(p)
	f.accepted += len(p)
	return len(p), nil
}

func (f *flakyConn) Close() error                     { return nil }
func (f *flakyConn) SetReadDeadline(time.Time) error  { return nil }
func (f *flakyConn) SetWriteDeadline(time.Time) error { return nil }

// TestTCPSendPoisonedAfterPartialWrite pins the satellite-b stream-
// corruption fix: a Send that fails after part of the frame hit the wire
// must poison the connection — the peer is stuck mid-frame, so any later
// send would interleave bytes into the torn frame and desynchronize the
// stream silently.
func TestTCPSendPoisonedAfterPartialWrite(t *testing.T) {
	wire := errors.New("wire failure")
	f := &flakyConn{failAt: 6, failErr: wire} // header (4) + 2 body bytes
	conn := WrapNetConn(f).(*tcpConn)

	err := conn.Send([]byte("payload"))
	if err == nil {
		t.Fatal("Send succeeded through a failing writer")
	}
	if !errors.Is(err, wire) {
		t.Fatalf("Send error %v does not wrap the write error", err)
	}
	if !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("partial-write error %q does not mention poisoning", err)
	}
	// The transport has "healed", but the connection must stay poisoned:
	// the stream position is unknowable.
	if err2 := conn.Send([]byte("next")); err2 == nil {
		t.Fatal("Send succeeded on a poisoned connection")
	} else if !strings.Contains(err2.Error(), "poisoned") {
		t.Fatalf("post-poison Send error %q does not carry the sticky cause", err2)
	}
	// Nothing beyond the partial frame may have hit the wire.
	if got := f.wrote.Len(); got != 6 {
		t.Fatalf("poisoned conn wrote %d bytes, want the 6 partial-frame bytes only", got)
	}
}

// TestTCPSendZeroByteFailureDoesNotPoison: a write failure with no bytes
// accepted leaves the stream aligned, so the connection must stay usable.
func TestTCPSendZeroByteFailureDoesNotPoison(t *testing.T) {
	wire := errors.New("transient failure")
	f := &flakyConn{failAt: 0, failErr: wire}
	conn := WrapNetConn(f).(*tcpConn)

	err := conn.Send([]byte("payload"))
	if !errors.Is(err, wire) {
		t.Fatalf("Send error = %v, want the write error", err)
	}
	if strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("zero-byte failure poisoned the connection: %v", err)
	}
	if err := conn.Send([]byte("retry")); err != nil {
		t.Fatalf("Send after aligned failure: %v", err)
	}
	want := 4 + len("retry")
	if got := f.wrote.Len(); got != want {
		t.Fatalf("retry wrote %d bytes, want %d", got, want)
	}
}

// feederConn is a net.Conn stub that serves an endless repetition of one
// framed message from memory, for allocation measurements where real
// sockets would add noise.
type feederConn struct {
	net.Conn
	frame []byte // header+body, replayed forever
	off   int
}

func (f *feederConn) Read(p []byte) (int, error) {
	if f.off == len(f.frame) {
		f.off = 0
	}
	n := copy(p, f.frame[f.off:])
	f.off += n
	return n, nil
}

// Write discards: the send-side allocation test measures what Send
// allocates, not where the bytes go.
func (f *feederConn) Write(p []byte) (int, error) { return len(p), nil }

func (f *feederConn) Close() error                    { return nil }
func (f *feederConn) SetReadDeadline(time.Time) error { return nil }

// TestTCPRecvTimeoutSteadyStateAllocs pins the receive half of the
// zero-allocation contract: once the conn-owned receive buffer has warmed
// to the frame size in play, a deadline-bounded receive allocates nothing.
func TestTCPRecvTimeoutSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	frame := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	conn := WrapNetConn(&feederConn{frame: frame})

	if _, err := conn.RecvTimeout(time.Second); err != nil { // warm the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := conn.RecvTimeout(time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state RecvTimeout allocates %.1f/op, want 0", allocs)
	}
}

// TestTCPSendSteadyStateAllocs is the send half: a steady-state Send
// allocates nothing. The write vector handed to net.Buffers.WriteTo is the
// conn's sendVec field — WriteTo has a pointer receiver, so a local
// net.Buffers would move to the heap on every call (0 → 1 alloc/op), which
// is what this test catches.
func TestTCPSendSteadyStateAllocs(t *testing.T) {
	conn := WrapNetConn(&feederConn{})
	msg := bytes.Repeat([]byte{0xAB}, 4096)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Send allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkRecvTimeoutSteadyState measures the deadline-bounded receive
// over a warmed conn-owned buffer; TestTCPRecvTimeoutSteadyStateAllocs pins
// its allocs/op at 0.
func BenchmarkRecvTimeoutSteadyState(b *testing.B) {
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	frame := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	conn := WrapNetConn(&feederConn{frame: frame})
	if _, err := conn.RecvTimeout(time.Second); err != nil { // warm the buffer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.RecvTimeout(time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTCPRecvBufferReuse pins the aliasing contract that makes the zero-
// allocation receive possible: consecutive same-size frames are returned
// in the same conn-owned backing array, so the message is only valid
// until the next receive.
func TestTCPRecvBufferReuse(t *testing.T) {
	frameA := append([]byte{5, 0, 0, 0}, "first"...)
	frameB := append([]byte{5, 0, 0, 0}, "secnd"...)
	conn := WrapNetConn(&feederConn{frame: append(frameA, frameB...)})
	a, err := conn.Recv()
	if err != nil || string(a) != "first" {
		t.Fatalf("first recv: %q, %v", a, err)
	}
	b, err := conn.Recv()
	if err != nil || string(b) != "secnd" {
		t.Fatalf("second recv: %q, %v", b, err)
	}
	if &a[0] != &b[0] {
		t.Fatal("consecutive same-size frames did not reuse the conn-owned buffer")
	}
	if string(a) != "secnd" {
		t.Fatalf("first message should alias the reused buffer, found %q", a)
	}
}

// hostileConn serves a frame header claiming a huge body, then a trickle
// of body bytes, then times out forever.
type hostileConn struct {
	net.Conn
	data []byte
	off  int
}

var errStubTimeout = &timeoutNetErr{}

type timeoutNetErr struct{}

func (*timeoutNetErr) Error() string   { return "stub: i/o timeout" }
func (*timeoutNetErr) Timeout() bool   { return true }
func (*timeoutNetErr) Temporary() bool { return true }

func (h *hostileConn) Read(p []byte) (int, error) {
	if h.off == len(h.data) {
		return 0, errStubTimeout
	}
	n := copy(p, h.data[h.off:])
	h.off += n
	return n, nil
}

func (h *hostileConn) Close() error                    { return nil }
func (h *hostileConn) SetReadDeadline(time.Time) error { return nil }

// TestTCPRecvHostileHeaderBoundedBuffer pins the recvDirectLimit cap on
// the new conn-owned buffer: a header claiming maxFrame with only a few
// real bytes behind it may reserve at most one recvDirectLimit window
// beyond the bytes actually received — and the partial progress survives
// the timeout for a later resume.
func TestTCPRecvHostileHeaderBoundedBuffer(t *testing.T) {
	const trickle = 1000
	data := make([]byte, 4+trickle)
	binary.LittleEndian.PutUint32(data, uint32(maxFrame))
	for i := range data[4:] {
		data[4+i] = byte(i)
	}
	tc := WrapNetConn(&hostileConn{data: data}).(*tcpConn)

	_, err := tc.RecvTimeout(time.Second)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("RecvTimeout = %v, want ErrTimeout", err)
	}
	if tc.got != trickle {
		t.Fatalf("partial progress lost: got %d bytes, want %d", tc.got, trickle)
	}
	if cap(tc.body) > trickle+recvDirectLimit {
		t.Fatalf("hostile header reserved %d bytes, cap is received+recvDirectLimit = %d",
			cap(tc.body), trickle+recvDirectLimit)
	}
	// A second receive resumes the same frame rather than restarting it.
	if _, err := tc.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("resumed RecvTimeout = %v, want ErrTimeout", err)
	}
	if tc.got != trickle || !tc.inBody {
		t.Fatal("resume discarded the in-progress frame state")
	}
}

// TestTCPRecvTimeoutResumeUnderChaosFraming feeds a frame through a pipe
// in bursts separated by stalls longer than the receive deadline: every
// receive either times out (keeping progress) or delivers the intact
// frame, and the stream never desynchronizes across many frames.
func TestTCPRecvTimeoutResumeUnderChaosFraming(t *testing.T) {
	raw, side := net.Pipe()
	defer raw.Close()
	conn := WrapNetConn(side)
	defer conn.Close()

	const frames = 8
	go func() {
		for i := 0; i < frames; i++ {
			body := bytes.Repeat([]byte{byte(i)}, 100+i*37)
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
			whole := append(hdr[:], body...)
			// Dribble each frame in three bursts with stalls in between.
			a, b := len(whole)/3, 2*len(whole)/3
			for _, burst := range [][]byte{whole[:a], whole[a:b], whole[b:]} {
				if _, err := raw.Write(burst); err != nil {
					return
				}
				time.Sleep(25 * time.Millisecond)
			}
		}
	}()

	for i := 0; i < frames; i++ {
		want := bytes.Repeat([]byte{byte(i)}, 100+i*37)
		var got []byte
		for {
			msg, err := conn.RecvTimeout(10 * time.Millisecond)
			if errors.Is(err, ErrTimeout) {
				continue
			}
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			got = msg
			break
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d corrupted after timeout resumes (len %d, want %d)", i, len(got), len(want))
		}
	}
}
