package cluster

import (
	"sync/atomic"
	"time"

	"sketchml/internal/hashing"
)

// This file implements ChaosConn, a fault-injecting Conn wrapper with a
// fully deterministic schedule: every fault decision for the op'th frame in
// a direction is a pure function of (Seed, direction, op), computed with
// the repository's seeded hash family. Two runs with the same seed and the
// same frame sequence therefore inject byte-identical faults, regardless of
// goroutine interleaving — which is what lets the trainer's chaos soak test
// demand exactly reproducible robustness counters.

// OutageWindow marks a half-open range [Start, End) of per-direction frame
// ordinals during which a link drops every frame in both directions — a
// transient disconnect followed by a rejoin. The zero value means no
// outage.
type OutageWindow struct {
	Start, End int64
}

func (o OutageWindow) contains(op int64) bool {
	return o.End > o.Start && op >= o.Start && op < o.End
}

// ChaosSpec configures a ChaosConn. Probabilities are per frame in [0, 1];
// send-side faults apply to frames written through the wrapper, recv-side
// faults to frames read through it, so one wrapper covers both directions
// of a link.
type ChaosSpec struct {
	// Seed drives the whole fault schedule; same seed, same faults.
	Seed int64

	SendDrop    float64 // frame silently discarded instead of sent
	SendCorrupt float64 // 1–3 bytes flipped before sending (a copy; the caller's buffer is untouched)
	SendDup     float64 // frame transmitted twice
	SendDelay   float64 // sleep in [DelayMin, DelayMax] before sending

	RecvDrop    float64 // delivered frame discarded; the receive keeps listening
	RecvCorrupt float64 // 1–3 bytes flipped after receipt
	RecvDup     float64 // frame delivered again on the next receive
	RecvDelay   float64 // sleep in [DelayMin, DelayMax] before delivery

	// DelayMin/DelayMax bound injected delays. DelayMax < DelayMin is
	// treated as DelayMax = DelayMin.
	DelayMin, DelayMax time.Duration

	// Outage drops every frame whose per-direction ordinal falls inside
	// the window: a mid-stream disconnect that later heals.
	Outage OutageWindow
}

// FaultCounts is a snapshot of the faults a ChaosConn has injected.
type FaultCounts struct {
	SendDrops, SendCorrupts, SendDups int64
	RecvDrops, RecvCorrupts, RecvDups int64
	Delays, OutageDrops               int64
}

// ChaosConn wraps a Conn and injects faults according to a ChaosSpec.
// It follows the Conn contract (Send and Recv each safe for one concurrent
// caller) and passes receive deadlines through to the wrapped connection.
type ChaosConn struct {
	inner Conn
	spec  ChaosSpec

	sendOps, recvOps atomic.Int64
	counts           struct {
		sendDrops, sendCorrupts, sendDups atomic.Int64
		recvDrops, recvCorrupts, recvDups atomic.Int64
		delays, outageDrops               atomic.Int64
	}

	// pending holds a duplicated inbound frame for the next receive. Only
	// the single permitted Recv caller touches it.
	pending []byte
}

// NewChaos wraps inner with seeded fault injection.
func NewChaos(inner Conn, spec ChaosSpec) *ChaosConn {
	return &ChaosConn{inner: inner, spec: spec}
}

// Fault-decision lanes: each fault kind draws from an independent seeded
// hash stream so, e.g., raising the drop rate never shifts which frames
// get corrupted.
const (
	laneDrop uint64 = iota + 1
	laneCorrupt
	laneDup
	laneDelay
	laneDelayDur
)

const (
	dirSend uint64 = 0x5e4d
	dirRecv uint64 = 0x7ecf
)

// roll returns a deterministic uniform in [0, 1) for the op'th frame in a
// direction, per lane.
func (c *ChaosConn) roll(dir, lane uint64, op int64) float64 {
	h := hashing.Mix64(uint64(op)^dir<<32, uint64(c.spec.Seed)+lane*0x9e3779b97f4a7c15)
	return float64(h>>11) / (1 << 53)
}

// corruptFrame flips 1–3 bytes of msg in place at seed-determined
// positions and returns it. Empty frames pass through.
func corruptFrame(msg []byte, seed uint64, op int64) []byte {
	if len(msg) == 0 {
		return msg
	}
	flips := 1 + int(hashing.Mix64(uint64(op), seed^0xc0ffee)%3)
	for i := 0; i < flips; i++ {
		h := hashing.Mix64(uint64(op)*8+uint64(i), seed^0xbadf00d)
		// The low bit of the mask is forced on so the byte always changes.
		msg[h%uint64(len(msg))] ^= byte(h>>32) | 1
	}
	return msg
}

func (c *ChaosConn) maybeDelay(dir uint64, p float64, op int64) {
	s := &c.spec
	if p <= 0 || c.roll(dir, laneDelay, op) >= p {
		return
	}
	lo, hi := s.DelayMin, s.DelayMax
	if hi < lo {
		hi = lo
	}
	d := lo
	if hi > lo {
		d = lo + time.Duration(c.roll(dir, laneDelayDur, op)*float64(hi-lo))
	}
	if d > 0 {
		c.counts.delays.Add(1)
		time.Sleep(d)
	}
}

// Send implements Conn, injecting send-direction faults.
func (c *ChaosConn) Send(msg []byte) error {
	s := &c.spec
	op := c.sendOps.Add(1) - 1
	if s.Outage.contains(op) {
		c.counts.outageDrops.Add(1)
		return nil
	}
	if c.roll(dirSend, laneDrop, op) < s.SendDrop {
		c.counts.sendDrops.Add(1)
		return nil
	}
	payload := msg
	if c.roll(dirSend, laneCorrupt, op) < s.SendCorrupt {
		c.counts.sendCorrupts.Add(1)
		payload = corruptFrame(append([]byte(nil), msg...), uint64(s.Seed), op)
	}
	c.maybeDelay(dirSend, s.SendDelay, op)
	if err := c.inner.Send(payload); err != nil {
		return err
	}
	if c.roll(dirSend, laneDup, op) < s.SendDup {
		c.counts.sendDups.Add(1)
		return c.inner.Send(payload)
	}
	return nil
}

// Recv implements Conn.
func (c *ChaosConn) Recv() ([]byte, error) { return c.RecvTimeout(0) }

// RecvTimeout implements Conn, injecting recv-direction faults.
// Dropped frames consume deadline budget exactly as a lossy wire would.
func (c *ChaosConn) RecvTimeout(d time.Duration) ([]byte, error) {
	if c.pending != nil {
		msg := c.pending
		c.pending = nil
		return msg, nil
	}
	var deadline time.Time
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	for {
		var remaining time.Duration
		if d > 0 {
			remaining = time.Until(deadline)
			if remaining <= 0 {
				return nil, ErrTimeout
			}
		}
		msg, err := c.inner.RecvTimeout(remaining)
		if err != nil {
			return nil, err
		}
		s := &c.spec
		op := c.recvOps.Add(1) - 1
		if s.Outage.contains(op) {
			c.counts.outageDrops.Add(1)
			continue
		}
		if c.roll(dirRecv, laneDrop, op) < s.RecvDrop {
			c.counts.recvDrops.Add(1)
			continue
		}
		if c.roll(dirRecv, laneCorrupt, op) < s.RecvCorrupt {
			c.counts.recvCorrupts.Add(1)
			msg = corruptFrame(msg, uint64(s.Seed), op)
		}
		c.maybeDelay(dirRecv, s.RecvDelay, op)
		if c.roll(dirRecv, laneDup, op) < s.RecvDup {
			c.counts.recvDups.Add(1)
			c.pending = append([]byte(nil), msg...)
		}
		return msg, nil
	}
}

// Close implements Conn.
func (c *ChaosConn) Close() error { return c.inner.Close() }

// Faults returns a snapshot of the injected-fault tallies.
func (c *ChaosConn) Faults() FaultCounts {
	return FaultCounts{
		SendDrops:    c.counts.sendDrops.Load(),
		SendCorrupts: c.counts.sendCorrupts.Load(),
		SendDups:     c.counts.sendDups.Load(),
		RecvDrops:    c.counts.recvDrops.Load(),
		RecvCorrupts: c.counts.recvCorrupts.Load(),
		RecvDups:     c.counts.recvDups.Load(),
		Delays:       c.counts.delays.Load(),
		OutageDrops:  c.counts.outageDrops.Load(),
	}
}
