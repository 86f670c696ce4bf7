package cluster

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestPairRoundTrip(t *testing.T) {
	a, b := Pair(1)
	defer a.Close()
	msg := []byte("hello gradient")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	// Reply direction.
	if err := b.Send([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	if got, err = a.Recv(); err != nil || string(got) != "ack" {
		t.Fatalf("reply: %q, %v", got, err)
	}
}

func TestPairCopiesBuffers(t *testing.T) {
	a, b := Pair(1)
	defer a.Close()
	msg := []byte{1, 2, 3}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	msg[0] = 99 // mutate after send
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("Send did not copy the buffer")
	}
}

func TestPairClose(t *testing.T) {
	a, b := Pair(0)
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := a.Send([]byte("x")); err != ErrClosed {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}

func TestPairDrainsQueuedAfterClose(t *testing.T) {
	a, b := Pair(4)
	if err := a.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	got, err := b.Recv()
	if err != nil || string(got) != "queued" {
		t.Fatalf("queued message lost: %q, %v", got, err)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := Pair(4)
	defer a.Close()
	ca, cb := NewCounting(a), NewCounting(b)
	if err := ca.Send(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ca.Send(make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Recv(); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Recv(); err != nil {
		t.Fatal(err)
	}
	sa, sb := ca.Stats(), cb.Stats()
	if sa.BytesSent != 150 || sa.MsgsSent != 2 {
		t.Errorf("sender stats %+v", sa)
	}
	if sb.BytesRecv != 150 || sb.MsgsRecv != 2 {
		t.Errorf("receiver stats %+v", sb)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	serverDone := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		defer c.Close()
		for i := 0; i < 3; i++ {
			msg, err := c.Recv()
			if err != nil {
				serverDone <- err
				return
			}
			if err := c.Send(append([]byte("echo:"), msg...)); err != nil {
				serverDone <- err
				return
			}
		}
		serverDone <- nil
	}()

	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		payload := []byte(fmt.Sprintf("grad-%d", i))
		if err := c.Send(payload); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if want := "echo:" + string(payload); string(got) != want {
			t.Fatalf("round %d: got %q, want %q", i, got, want)
		}
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargeAndEmptyFrames(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(msg); err != nil {
				return
			}
		}
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	for _, msg := range [][]byte{{}, big} {
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("frame of %d bytes corrupted", len(msg))
		}
	}
}

func TestTCPManyWorkers(t *testing.T) {
	// A miniature fan-in: several workers connect and send concurrently.
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers = 5

	var wg sync.WaitGroup
	received := make(chan string, workers)
	go func() {
		for i := 0; i < workers; i++ {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(c Conn) {
				defer wg.Done()
				defer c.Close()
				msg, err := c.Recv()
				if err == nil {
					received <- string(msg)
				}
			}(c)
		}
	}()

	for w := 0; w < workers; w++ {
		go func(w int) {
			c, err := Dial(l.Addr())
			if err != nil {
				return
			}
			defer c.Close()
			_ = c.Send([]byte(fmt.Sprintf("worker-%d", w)))
		}(w)
	}
	seen := map[string]bool{}
	for i := 0; i < workers; i++ {
		select {
		case m := <-received:
			seen[m] = true
		case <-time.After(5 * time.Second):
			t.Fatal("timeout waiting for workers")
		}
	}
	if len(seen) != workers {
		t.Errorf("saw %d distinct workers, want %d", len(seen), workers)
	}
	wg.Wait()
}

func TestRoundTimeScalesWithBytesAndWorkers(t *testing.T) {
	m := LabCluster()
	small := m.RoundTime(1000, 1000, 10)
	big := m.RoundTime(1_000_000, 1_000_000, 10)
	if big <= small {
		t.Error("more bytes should take longer")
	}
	few := m.RoundTime(1_000_000, 100_000, 5)
	many := m.RoundTime(1_000_000, 100_000, 50)
	if many <= few {
		t.Error("more workers should increase broadcast cost")
	}
}

func TestEpochTimeCrossover(t *testing.T) {
	// The Figure 11 phenomenon: for a heavy (uncompressed) message, going
	// from 10 to 50 workers makes the epoch SLOWER (communication dominates),
	// while for a light (compressed) message it gets faster.
	m := LabCluster()
	const compute = 100 * time.Second
	const rounds = 10
	heavyUp, heavyDown := int64(rounds*4<<20), int64(rounds*400<<10) // 4 MB up, 400 KB down each, per round
	lightUp, lightDown := heavyUp/16, heavyDown/16

	heavy10, _ := m.EpochTime(compute, 0, 10, rounds, heavyUp, heavyDown)
	heavy50, _ := m.EpochTime(compute, 0, 50, rounds, heavyUp, heavyDown)
	light10, _ := m.EpochTime(compute, 0, 10, rounds, lightUp, lightDown)
	light50, _ := m.EpochTime(compute, 0, 50, rounds, lightUp, lightDown)

	if heavy50 <= heavy10 {
		t.Errorf("uncompressed should degrade at 50 workers: %v vs %v", heavy50, heavy10)
	}
	if light50 >= light10 {
		t.Errorf("compressed should improve at 50 workers: %v vs %v", light50, light10)
	}
}

func TestEpochTimeWorkerClamp(t *testing.T) {
	m := LabCluster()
	zero, _ := m.EpochTime(time.Second, 0, 0, 1, 0, 0)
	one, _ := m.EpochTime(time.Second, 0, 1, 1, 0, 0)
	if zero != one {
		t.Error("workers should clamp to 1")
	}
}

// TestEpochTimeZeroRounds: an epoch that ran no round (a resume that lands
// on the end of the run) has no per-round traffic to divide; it prices to
// its CPU terms, and an empty one to zero.
func TestEpochTimeZeroRounds(t *testing.T) {
	m := LabCluster()
	if epoch, network := m.EpochTime(0, 0, 4, 0, 0, 0); epoch != 0 || network != 0 {
		t.Errorf("empty epoch priced to %v (network %v), want 0", epoch, network)
	}
	epoch, network := m.EpochTime(8*time.Second, time.Second, 4, 0, 1<<20, 1<<20)
	if epoch != 3*time.Second || network != 0 {
		t.Errorf("zero rounds priced to %v (network %v), want 3s of CPU and no network", epoch, network)
	}
}

func TestCountingConnConcurrentStress(t *testing.T) {
	// One sender, one receiver hammering the same counting wrapper; counts
	// must reconcile exactly (atomic counters, no lost updates).
	a, b := Pair(64)
	ca, cb := NewCounting(a), NewCounting(b)
	const msgs = 5000
	done := make(chan error, 2)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := ca.Send(make([]byte, i%97+1)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < msgs; i++ {
			if _, err := cb.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := ca.Stats(), cb.Stats()
	if sa.MsgsSent != msgs || sb.MsgsRecv != msgs {
		t.Errorf("message counts: sent %d, recv %d", sa.MsgsSent, sb.MsgsRecv)
	}
	if sa.BytesSent != sb.BytesRecv {
		t.Errorf("byte counts disagree: %d vs %d", sa.BytesSent, sb.BytesRecv)
	}
}

func TestTCPBidirectionalConcurrent(t *testing.T) {
	// Full-duplex: both directions stream simultaneously without framing
	// corruption.
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const msgs = 500
	serverDone := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		defer c.Close()
		errs := make(chan error, 2)
		go func() {
			for i := 0; i < msgs; i++ {
				if err := c.Send(make([]byte, i%251+1)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
		go func() {
			for i := 0; i < msgs; i++ {
				msg, err := c.Recv()
				if err != nil {
					errs <- err
					return
				}
				if len(msg) != i%131+1 {
					errs <- fmt.Errorf("frame %d has %d bytes, want %d", i, len(msg), i%131+1)
					return
				}
			}
			errs <- nil
		}()
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				serverDone <- err
				return
			}
		}
		serverDone <- nil
	}()
	c, err := Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clientErrs := make(chan error, 2)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := c.Send(make([]byte, i%131+1)); err != nil {
				clientErrs <- err
				return
			}
		}
		clientErrs <- nil
	}()
	go func() {
		for i := 0; i < msgs; i++ {
			msg, err := c.Recv()
			if err != nil {
				clientErrs <- err
				return
			}
			if len(msg) != i%251+1 {
				clientErrs <- fmt.Errorf("frame %d has %d bytes, want %d", i, len(msg), i%251+1)
				return
			}
		}
		clientErrs <- nil
	}()
	// A hang guard, not a timing bound: a lock that couples the two
	// directions deadlocks both ends, and the test then fails by name with
	// every goroutine's stack instead of stalling until go test's timeout.
	const hangAfter = 30 * time.Second
	watchdog := time.NewTimer(hangAfter)
	defer watchdog.Stop()
	wait := func(done <-chan error) {
		t.Helper()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-watchdog.C:
			buf := make([]byte, 1<<20)
			t.Fatalf("streams still running after %v; goroutines:\n%s", hangAfter, buf[:runtime.Stack(buf, true)])
		}
	}
	wait(clientErrs)
	wait(clientErrs)
	wait(serverDone)
}

func TestPairDrainsAllQueuedAfterClose(t *testing.T) {
	// Repeated Recv after Close must hand over every queued message before
	// reporting ErrClosed — a closing worker's last gradients still count.
	a, b := Pair(8)
	const queued = 5
	for i := 0; i < queued; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queued; i++ {
		msg, err := b.Recv()
		if err != nil {
			t.Fatalf("queued message %d lost after close: %v", i, err)
		}
		if msg[0] != byte(i) {
			t.Fatalf("drain out of order: got %d at position %d", msg[0], i)
		}
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("Recv after drain = %v, want ErrClosed", err)
	}
	// Draining also works through the deadline path.
	a2, b2 := Pair(2)
	if err := a2.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	a2.Close()
	if msg, err := b2.RecvTimeout(time.Second); err != nil || string(msg) != "x" {
		t.Fatalf("RecvTimeout did not drain after close: %q, %v", msg, err)
	}
	if _, err := b2.RecvTimeout(time.Second); err != ErrClosed {
		t.Fatalf("RecvTimeout after drain = %v, want ErrClosed", err)
	}
}

func TestPairSharedClose(t *testing.T) {
	// Closing EITHER endpoint closes the pair: both directions fail on
	// both endpoints afterwards.
	a, b := Pair(1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("x")); err != ErrClosed {
		t.Errorf("a.Send after b.Close = %v, want ErrClosed", err)
	}
	if _, err := a.Recv(); err != ErrClosed {
		t.Errorf("a.Recv after b.Close = %v, want ErrClosed", err)
	}
	if err := b.Send([]byte("x")); err != ErrClosed {
		t.Errorf("b.Send after b.Close = %v, want ErrClosed", err)
	}
	// Close is idempotent from either side.
	if err := a.Close(); err != nil {
		t.Errorf("second Close errored: %v", err)
	}
}

func TestMemRecvTimeout(t *testing.T) {
	a, b := Pair(1)
	defer a.Close()
	start := time.Now()
	if _, err := b.RecvTimeout(30 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("empty RecvTimeout = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The connection stays usable after a timeout.
	if err := a.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	msg, err := b.RecvTimeout(time.Second)
	if err != nil || string(msg) != "late" {
		t.Fatalf("post-timeout receive: %q, %v", msg, err)
	}
	// d <= 0 blocks like Recv (delivery already queued here).
	if err := a.Send([]byte("again")); err != nil {
		t.Fatal(err)
	}
	if msg, err := b.RecvTimeout(0); err != nil || string(msg) != "again" {
		t.Fatalf("RecvTimeout(0): %q, %v", msg, err)
	}
}

func TestCountingConnRecvTimeout(t *testing.T) {
	a, b := Pair(1)
	defer a.Close()
	cb := NewCounting(b)
	if _, err := cb.RecvTimeout(20 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("counting RecvTimeout = %v, want ErrTimeout", err)
	}
	if s := cb.Stats(); s.MsgsRecv != 0 {
		t.Errorf("timeout counted as a received message: %+v", s)
	}
	if err := a.Send(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.RecvTimeout(time.Second); err != nil {
		t.Fatal(err)
	}
	if s := cb.Stats(); s.MsgsRecv != 1 || s.BytesRecv != 10 {
		t.Errorf("counting through deadline path: %+v", s)
	}
}
