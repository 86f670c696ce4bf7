package trainer

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/gradient"
)

// These tests pin the driver's batched fan-out (broadcaster): frames flow
// through cluster.SendBatch, a transiently refused send is queued and
// re-delivered as one coalesced batch when the link heals, and the
// per-worker decode buffers really are reused across rounds.

// refusingConn fails its first `refusals` sends, then heals and delivers
// normally over an in-memory pair.
type refusingConn struct {
	cluster.Conn
	refusals int
}

func (c *refusingConn) Send(msg []byte) error {
	if c.refusals > 0 {
		c.refusals--
		return errors.New("link down")
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

// TestBroadcasterQueuesAndFlushesAfterTransientFailure drives a broadcaster
// over one healthy link and one that refuses the first two rounds, and
// checks the healed link receives all three rounds in order in one flush —
// with payload bytes identical to the healthy link's, even though the
// broadcaster reuses one frame buffer for every round and link.
func TestBroadcasterQueuesAndFlushesAfterTransientFailure(t *testing.T) {
	a0, b0 := cluster.Pair(16)
	a1, b1 := cluster.Pair(16)
	flaky := &refusingConn{Conn: a1, refusals: 2}
	conns := []*cluster.CountingConn{cluster.NewCounting(a0), cluster.NewCounting(flaky)}

	bc := newBroadcaster(2)
	payloads := [][]byte{[]byte("round zero"), []byte("round one!"), []byte("round two.")}
	for round, p := range payloads {
		if err := bc.send(conns, append(bc.begin(round), p...), true); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	for _, link := range []cluster.Conn{b0, b1} {
		frames := recvFrames(t, link, len(payloads))
		for round, f := range frames {
			kind, tag, payload, err := parseFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			if kind != frameGrad || tag != round || !bytes.Equal(payload, payloads[round]) {
				t.Fatalf("frame %d: kind 0x%02x tag %d payload %q", round, kind, tag, payload)
			}
		}
	}
}

// TestBroadcasterStrictModeAborts pins the strict-mode contract: a refused
// send is an attributed error, not a queued retry.
func TestBroadcasterStrictModeAborts(t *testing.T) {
	a, _ := cluster.Pair(1)
	conns := []*cluster.CountingConn{cluster.NewCounting(&refusingConn{Conn: a, refusals: 1})}
	bc := newBroadcaster(1)
	if err := bc.send(conns, append(bc.begin(0), 'x'), false); err == nil {
		t.Fatal("strict-mode broadcast swallowed a send error")
	}
}

// TestBroadcasterQueueBounded checks a permanently dead link cannot grow
// the backlog past broadcastQueueCap.
func TestBroadcasterQueueBounded(t *testing.T) {
	a, _ := cluster.Pair(1)
	dead := &refusingConn{Conn: a, refusals: 1 << 30}
	conns := []*cluster.CountingConn{cluster.NewCounting(dead)}
	bc := newBroadcaster(1)
	for round := 0; round < 3*broadcastQueueCap; round++ {
		if err := bc.send(conns, append(bc.begin(round), "payload"...), true); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(bc.pending[0]); got > broadcastQueueCap {
		t.Fatalf("pending backlog %d exceeds cap %d", got, broadcastQueueCap)
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
	if err := gatherRound(cfg, 0, driverSide, make([]int, workers), reuse, acc, &EpochStats{}, &decode); err != nil {
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
	if err := gatherRound(cfg, 1, driverSide, make([]int, workers), reuse, acc, &EpochStats{}, &decode); err != nil {
		t.Fatal(err)
	}
	for w := range reuse {
		if &reuse[w].Keys[0] != firstKeys[w] {
			t.Fatalf("worker %d: second round reallocated the decode buffer", w)
		}
	}
}
