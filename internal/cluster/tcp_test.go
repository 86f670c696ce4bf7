package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// tcpPair returns two connected framed endpoints over loopback TCP.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	errs := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errs <- err
			return
		}
		accepted <- c
	}()
	client, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case server := <-accepted:
		t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
		return client, server
	case err := <-errs:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("timeout accepting loopback connection")
	}
	return nil, nil
}

// TestTCPConcurrentSenders hammers one shared Conn with many concurrent
// senders. Before Send serialized frames under a mutex, the shared header
// buffer raced and header/body pairs interleaved on the wire; this test
// (run under -race via `make race`) pins the fix: every frame must arrive
// intact and the multiset of payloads must match exactly. Receiving uses
// one goroutine that finishes with each message before the next Recv —
// the Conn contract — because a received message aliases the conn-owned
// receive buffer and is only valid until the next receive.
func TestTCPConcurrentSenders(t *testing.T) {
	client, server := tcpPair(t)
	const (
		senders        = 8
		msgsPerSender  = 200
		totalMessages  = senders * msgsPerSender
		payloadModulus = 251
	)

	// Each payload encodes (sender, seq) and is padded to a sender-dependent
	// length so interleaved frames would corrupt both length and content.
	makePayload := func(s, i int) []byte {
		p := make([]byte, 8+(s*31+i)%payloadModulus)
		binary.LittleEndian.PutUint32(p[0:], uint32(s))
		binary.LittleEndian.PutUint32(p[4:], uint32(i))
		for j := 8; j < len(p); j++ {
			p[j] = byte(s ^ i ^ j)
		}
		return p
	}

	var sendWG sync.WaitGroup
	sendErrs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		sendWG.Add(1)
		go func(s int) {
			defer sendWG.Done()
			for i := 0; i < msgsPerSender; i++ {
				if err := client.Send(makePayload(s, i)); err != nil {
					sendErrs <- fmt.Errorf("sender %d msg %d: %w", s, i, err)
					return
				}
			}
		}(s)
	}

	type recvd struct {
		s, i int
	}
	got := make(chan recvd, totalMessages)
	recvErrs := make(chan error, 1)
	var recvWG sync.WaitGroup
	recvWG.Add(1)
	go func() {
		defer recvWG.Done()
		for n := 0; n < totalMessages; n++ {
			msg, err := server.Recv()
			if err != nil {
				recvErrs <- err
				return
			}
			if len(msg) < 8 {
				recvErrs <- fmt.Errorf("frame too short: %d bytes", len(msg))
				return
			}
			s := int(binary.LittleEndian.Uint32(msg[0:]))
			i := int(binary.LittleEndian.Uint32(msg[4:]))
			want := makePayload(s, i)
			if !bytes.Equal(msg, want) {
				recvErrs <- fmt.Errorf("frame (%d,%d) corrupted", s, i)
				return
			}
			got <- recvd{s, i}
		}
	}()

	sendWG.Wait()
	close(sendErrs)
	for err := range sendErrs {
		t.Fatal(err)
	}
	recvWG.Wait()
	close(recvErrs)
	for err := range recvErrs {
		t.Fatal(err)
	}
	close(got)
	seen := map[recvd]int{}
	for m := range got {
		seen[m]++
	}
	if len(seen) != totalMessages {
		t.Fatalf("received %d distinct messages, want %d", len(seen), totalMessages)
	}
	for m, n := range seen {
		if n != 1 {
			t.Fatalf("message %+v received %d times", m, n)
		}
	}
}

// TestTCPFrameRoundTripProperty round-trips frames across the interesting
// size boundaries: empty, single byte, sizes straddling the chunked-receive
// threshold, and a frame larger than the direct-allocation limit. Content
// must survive bit-for-bit in order.
func TestTCPFrameRoundTripProperty(t *testing.T) {
	client, server := tcpPair(t)
	sizes := []int{
		0, 1, 2, 255, 4096,
		recvDirectLimit - 1, recvDirectLimit, recvDirectLimit + 1,
		3*recvDirectLimit + 12345,
	}
	go func() {
		for range sizes {
			msg, err := server.Recv()
			if err != nil {
				return
			}
			if err := server.Send(msg); err != nil {
				return
			}
		}
	}()
	for _, n := range sizes {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i * 131)
		}
		if err := client.Send(msg); err != nil {
			t.Fatalf("size %d: send: %v", n, err)
		}
		got, err := client.Recv()
		if err != nil {
			t.Fatalf("size %d: recv: %v", n, err)
		}
		if len(got) != n || !bytes.Equal(got, msg) {
			t.Fatalf("size %d: frame corrupted (got %d bytes)", n, len(got))
		}
	}
}

// TestTCPSendRejectsOversizedFrame pins the maxFrame boundary on the send
// side without allocating a gigabyte: exactly maxFrame must pass the size
// check (we only verify the header hits the wire), maxFrame+1 must be
// rejected before any bytes are written.
func TestTCPSendRejectsOversizedFrame(t *testing.T) {
	client, _ := tcpPair(t)
	if err := client.Send(make([]byte, 16)); err != nil {
		t.Fatalf("in-limit frame rejected: %v", err)
	}
	// The over-limit slice is never written, only length-checked, so the
	// zero pages backing it are never touched.
	huge := make([]byte, maxFrame+1)
	if err := client.Send(huge); err == nil {
		t.Fatal("Send accepted a frame over maxFrame")
	}
}

// TestTCPRecvHugeLengthHeader feeds Recv a length header claiming a frame
// at the maxFrame limit with (almost) no body. Recv must fail with
// unexpected EOF once the stream ends — and, because body buffers grow only
// as bytes arrive, without attempting the 1 GiB up-front allocation the old
// code performed.
func TestTCPRecvHugeLengthHeader(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	conn := WrapNetConn(b)
	defer conn.Close()
	go func() {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(maxFrame))
		if _, err := a.Write(hdr[:]); err != nil {
			return
		}
		// A few body bytes, then hang up mid-frame.
		if _, err := a.Write([]byte("short")); err != nil {
			return
		}
		a.Close()
	}()
	_, err := conn.Recv()
	if err == nil {
		t.Fatal("Recv succeeded on a truncated 1 GiB frame")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("Recv error = %v, want unexpected-EOF class", err)
	}
}

// TestTCPRecvRejectsOverlimitHeader checks the other side of the boundary:
// a header above maxFrame is rejected outright.
func TestTCPRecvRejectsOverlimitHeader(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	conn := WrapNetConn(b)
	defer conn.Close()
	go func() {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(maxFrame+1))
		_, _ = a.Write(hdr[:])
	}()
	_, err := conn.Recv()
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("Recv error = %v, want frame-limit rejection", err)
	}
}

// TestDialPermanentErrorFailsFast: a bad address fails at once.
func TestDialPermanentErrorFailsFast(t *testing.T) {
	start := time.Now()
	if _, err := Dial("127.0.0.1:no-such-port"); err == nil {
		t.Fatal("Dial succeeded on an unresolvable port name")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("a bad address took %v to fail", elapsed)
	}
}

// TestDialContextCancelled: a cancelled ctx fails the dial with an error
// that carries ctx.Err(), which is how a caller tells cancellation apart
// from a fault.
func TestDialContextCancelled(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := DialContext(ctx, l.Addr())
	if err == nil {
		_ = c.Close()
		t.Fatal("DialContext succeeded with a cancelled ctx")
	}
	if !errors.Is(err, ctx.Err()) {
		t.Fatalf("DialContext error = %v, want one that wraps %v", err, ctx.Err())
	}
}

// TestTCPRecvTimeoutIdleLink: a deadline on a silent link expires with
// ErrTimeout and the link stays usable.
func TestTCPRecvTimeoutIdleLink(t *testing.T) {
	client, server := tcpPair(t)
	if _, err := client.RecvTimeout(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("idle RecvTimeout = %v, want ErrTimeout", err)
	}
	if err := server.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	msg, err := client.RecvTimeout(2 * time.Second)
	if err != nil || string(msg) != "after" {
		t.Fatalf("post-timeout receive: %q, %v", msg, err)
	}
	// And a plain Recv still blocks-then-delivers (deadline was cleared).
	if err := server.Send([]byte("plain")); err != nil {
		t.Fatal(err)
	}
	if msg, err := client.Recv(); err != nil || string(msg) != "plain" {
		t.Fatalf("plain Recv after timed call: %q, %v", msg, err)
	}
}

// TestTCPRecvTimeoutResumesPartialFrame pins the stream-integrity property
// the deadline seam depends on: a timeout that fires mid-frame must not
// desynchronize the stream — the next receive resumes the same frame and
// returns it intact.
func TestTCPRecvTimeoutResumesPartialFrame(t *testing.T) {
	raw, side := net.Pipe()
	defer raw.Close()
	conn := WrapNetConn(side)
	defer conn.Close()

	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		if _, err := raw.Write(hdr[:]); err != nil {
			return
		}
		// Half the body, then stall past the receiver's deadline, then the
		// rest — and a second whole frame to prove framing survived.
		if _, err := raw.Write(payload[:32]); err != nil {
			return
		}
		time.Sleep(150 * time.Millisecond)
		if _, err := raw.Write(payload[32:]); err != nil {
			return
		}
		binary.LittleEndian.PutUint32(hdr[:], 3)
		if _, err := raw.Write(hdr[:]); err != nil {
			return
		}
		_, _ = raw.Write([]byte("ok!"))
	}()

	if _, err := conn.RecvTimeout(40 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("mid-frame RecvTimeout = %v, want ErrTimeout", err)
	}
	got, err := conn.RecvTimeout(2 * time.Second)
	if err != nil {
		t.Fatalf("resumed receive failed: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("resumed frame corrupted")
	}
	next, err := conn.RecvTimeout(2 * time.Second)
	if err != nil || string(next) != "ok!" {
		t.Fatalf("stream desynchronized after resume: %q, %v", next, err)
	}
	<-wrote
}

// TestTCPRecvTimeoutHeaderSplit: the deadline can also fire inside the
// 4-byte length header; resume must reassemble it.
func TestTCPRecvTimeoutHeaderSplit(t *testing.T) {
	raw, side := net.Pipe()
	defer raw.Close()
	conn := WrapNetConn(side)
	defer conn.Close()

	go func() {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 5)
		if _, err := raw.Write(hdr[:2]); err != nil {
			return
		}
		time.Sleep(120 * time.Millisecond)
		if _, err := raw.Write(hdr[2:]); err != nil {
			return
		}
		_, _ = raw.Write([]byte("hello"))
	}()
	if _, err := conn.RecvTimeout(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("mid-header RecvTimeout = %v, want ErrTimeout", err)
	}
	got, err := conn.RecvTimeout(2 * time.Second)
	if err != nil || string(got) != "hello" {
		t.Fatalf("header resume: %q, %v", got, err)
	}
}
