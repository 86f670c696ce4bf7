package trainer

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/gradient"
)

// These tests pin the driver's broadcast: one frame buffer, one Send per
// link, and a refused send that is a missed frame — no copy, no queue, no
// replay — plus the per-worker decode buffers' reuse across rounds.

// errLinkDown is refusingConn's error, made once so a refused send
// allocates nothing of its own.
var errLinkDown = errors.New("link down")

// refusingConn fails its first `refusals` sends, then heals and delivers
// normally over an in-memory pair.
type refusingConn struct {
	cluster.Conn
	refusals int
}

func (c *refusingConn) Send(msg []byte) error {
	if c.refusals > 0 {
		c.refusals--
		return errLinkDown
	}
	return c.Conn.Send(msg)
}

func recvFrames(t *testing.T, conn cluster.Conn, n int) [][]byte {
	t.Helper()
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		msg, err := conn.RecvTimeout(time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		out = append(out, msg)
	}
	return out
}

// broadcastDriver is a driver with just what broadcast reads: the links,
// and a config that is tolerant when deadline is positive.
func broadcastDriver(deadline time.Duration, links ...cluster.Conn) *driver {
	conns := make([]*cluster.CountingConn, len(links))
	for w, c := range links {
		conns[w] = cluster.NewCounting(c)
	}
	return &driver{cfg: &Config{RoundDeadline: deadline}, conns: conns}
}

// broadcastRound builds round's frame around payload in the driver's
// frame buffer and broadcasts it, as runRound does.
func broadcastRound(d *driver, round int, payload []byte) error {
	return d.broadcast(append(beginFrame(d.frame[:0], frameGrad, round), payload...))
}

// TestBroadcastTolerantRefusedSendIsMissedFrame drives a tolerant broadcast
// over one healthy link and one that refuses the first two rounds: every
// broadcast succeeds, the healthy link receives every round, and the healed
// link receives only the round sent after it healed — nothing is replayed.
func TestBroadcastTolerantRefusedSendIsMissedFrame(t *testing.T) {
	a0, b0 := cluster.Pair(16)
	a1, b1 := cluster.Pair(16)
	d := broadcastDriver(time.Second, a0, &refusingConn{Conn: a1, refusals: 2})
	payloads := [][]byte{[]byte("round zero"), []byte("round one!"), []byte("round two.")}
	for round, p := range payloads {
		if err := broadcastRound(d, round, p); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	check := func(link string, f []byte, round int) {
		t.Helper()
		kind, tag, payload, err := parseFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if kind != frameGrad || tag != round || !bytes.Equal(payload, payloads[round]) {
			t.Fatalf("%s link, round %d: kind 0x%02x tag %d payload %q", link, round, kind, tag, payload)
		}
	}
	for round, f := range recvFrames(t, b0, len(payloads)) {
		check("healthy", f, round)
	}
	check("healed", recvFrames(t, b1, 1)[0], 2)
	if msg, err := b1.RecvTimeout(10 * time.Millisecond); !errors.Is(err, cluster.ErrTimeout) {
		t.Fatalf("healed link received a replayed frame %x (%v)", msg, err)
	}
}

// TestBroadcasterStrictModeAborts pins the strict-mode contract: a refused
// send is an attributed error, not a missed frame.
func TestBroadcasterStrictModeAborts(t *testing.T) {
	a, _ := cluster.Pair(1)
	d := broadcastDriver(0, &refusingConn{Conn: a, refusals: 1})
	if err := broadcastRound(d, 0, []byte("x")); err == nil {
		t.Fatal("strict-mode broadcast swallowed a send error")
	}
}

// TestBroadcastToDeadLinkAllocatesNothing: a warm tolerant broadcast to a
// permanently refusing link allocates nothing — the refused frame is not
// copied or kept anywhere.
func TestBroadcastToDeadLinkAllocatesNothing(t *testing.T) {
	a, _ := cluster.Pair(1)
	d := broadcastDriver(time.Second, &refusingConn{Conn: a, refusals: 1 << 30})
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	round := 0
	send := func() {
		if err := broadcastRound(d, round, payload); err != nil {
			t.Fatal(err)
		}
		round++
	}
	send() // size the frame buffer
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Fatalf("broadcast to a dead link allocates %v objects/round, want 0", allocs)
	}
}

// TestGatherReusesDecodeBuffers runs two gather rounds through the same
// reuse slots and checks the second round decodes into the first round's
// backing arrays — the per-worker zero-allocation contract.
func TestGatherReusesDecodeBuffers(t *testing.T) {
	const workers = 2
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	reuse := make([]gradient.Sparse, workers)
	acc := gradient.NewAccumulator(gatherDim)
	var decode time.Duration
	sendAll := func(round int) {
		t.Helper()
		for w := 0; w < workers; w++ {
			if err := workerSide[w].Send(appendFrame(nil, frameGrad, round, msg)); err != nil {
				t.Fatal(err)
			}
		}
	}
	sendAll(0)
	if err := gatherRound(cfg, 0, driverSide, make([]int, workers), reuse, nil, acc, &EpochStats{}, &decode); err != nil {
		t.Fatal(err)
	}
	firstKeys := make([]*uint64, workers)
	for w := range reuse {
		if len(reuse[w].Keys) == 0 {
			t.Fatalf("worker %d decoded an empty gradient", w)
		}
		firstKeys[w] = &reuse[w].Keys[0]
	}
	_ = acc.Sum() // drain (Sum resets the accumulator)
	sendAll(1)
	if err := gatherRound(cfg, 1, driverSide, make([]int, workers), reuse, nil, acc, &EpochStats{}, &decode); err != nil {
		t.Fatal(err)
	}
	for w := range reuse {
		if &reuse[w].Keys[0] != firstKeys[w] {
			t.Fatalf("worker %d: second round reallocated the decode buffer", w)
		}
	}
}
