package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"
	"time"
)

// fill sets every byte of b to v.
func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// holds reports whether every byte of b is v.
func holds(b []byte, v byte) bool { return len(b) > 0 && bytes.Count(b, []byte{v}) == len(b) }

// TestMemConnMessageLifetime pins the Conn contract on the in-memory link
// that recycles its frames: the sender may overwrite its buffer as soon as
// Send returns, a received message stays intact while the sender fills the
// queue behind it, and its buffer goes back to the sender only at the
// receiver's next receive — after which the link reuses it.
func TestMemConnMessageLifetime(t *testing.T) {
	for _, depth := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			a, b := Pair(depth)
			defer a.Close()
			buf := make([]byte, 64)
			send := func(v byte) {
				fill(buf, v)
				if err := a.Send(buf); err != nil {
					t.Fatal(err)
				}
				fill(buf, 0xFF) // the sender's buffer is its own again
			}
			seen := map[*byte]bool{}
			recv := func(v byte) []byte {
				msg, err := b.RecvTimeout(time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if !holds(msg, v) {
					t.Fatalf("received %v, want 64 bytes of %d", msg, v)
				}
				seen[&msg[0]] = true
				return msg
			}
			send(1)
			held := recv(1)
			for v := 2; v < 2+depth; v++ { // fill the queue behind the held message
				send(byte(v))
			}
			if !holds(held, 1) {
				t.Fatalf("a message changed before its receiver's next receive: %v", held)
			}
			for v := 2; v < 2+depth; v++ {
				if msg := recv(byte(v)); &msg[0] == &held[0] {
					t.Fatalf("message %d shares the storage of a message its receiver held when it was sent", v)
				}
			}
			// Every buffer the link made is back on the free list or held:
			// the next frames reuse them.
			for v := 10; v < 10+2*(depth+2); v++ {
				send(byte(v))
				before := len(seen)
				recv(byte(v))
				if len(seen) != before {
					t.Fatalf("frame %d came in a new buffer; a warm link reuses the ones handed back", v)
				}
			}
		})
	}
}

// TestMemConnWarmAllocs is the allocation-contract row of the in-memory
// link: once its buffers have grown to the frame in play, a Send and the
// receive that takes it allocate nothing. No sync.Pool is involved (the
// free list is a channel), so the count holds under -race too.
func TestMemConnWarmAllocs(t *testing.T) {
	a, b := Pair(2)
	defer a.Close()
	msg := bytes.Repeat([]byte{0xAB}, 4096)
	roundTrip := func() {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // every buffer the link circulates, grown
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Errorf("warm Send+Recv allocates %.1f/op, want 0", allocs)
	}
}

// TestChaosRecvDupSurvivesRecycling holds ChaosConn's recv-dup lane to the
// message lifetime of the link under it: the duplicate is delivered by the
// receive after the original, with no receive on the inner link between
// them, and must still carry the original's bytes while the sender reuses
// every buffer the receiver has handed back.
func TestChaosRecvDupSurvivesRecycling(t *testing.T) {
	a, b := Pair(2)
	defer a.Close()
	cc := NewChaos(b, ChaosSpec{Seed: 5, RecvDup: 1.0})
	buf := make([]byte, 32)
	send := func(v byte) {
		fill(buf, v)
		if err := a.Send(buf); err != nil {
			t.Fatal(err)
		}
		fill(buf, 0xFF)
	}
	recv := func(v byte, what string) {
		msg, err := cc.RecvTimeout(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !holds(msg, v) {
			t.Fatalf("%s of frame %d: %v", what, v, msg)
		}
	}
	send(1)
	send(2)
	for v := byte(1); v <= 20; v++ {
		recv(v, "original")
		send(v + 2) // into the buffer the last inner receive handed back
		recv(v, "duplicate")
	}
	if got := cc.Faults().RecvDups; got != 20 {
		t.Errorf("recv dups = %d, want 20", got)
	}
}

// TestMemConnRecycleStress races one sender against one receiver over
// every buffer depth. Each frame carries its sequence number and a
// checksum of its body; its size wanders, so recycled buffers also regrow.
// The sender clears its buffer right after each Send, and the receiver
// yields before checking each message, which widens the window in which a
// buffer handed to Send while the receiver still held it would be
// overwritten: the checksum catches that, and under -race (make
// race-matrix runs this package) the detector does too.
func TestMemConnRecycleStress(t *testing.T) {
	const frames = 3000
	for _, depth := range []int{0, 2, 4} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			a, b := Pair(depth)
			defer a.Close()
			sent := make(chan error, 1)
			go func() {
				buf := make([]byte, 0, 64)
				for seq := uint64(0); seq < frames; seq++ {
					n := 12 + int(seq*7919%1021)
					buf = append(buf[:0], make([]byte, n)...)
					binary.LittleEndian.PutUint64(buf, seq)
					for i := 12; i < n; i++ {
						buf[i] = byte(seq) ^ byte(i)
					}
					binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf[12:]))
					if err := a.Send(buf); err != nil {
						sent <- err
						return
					}
					clear(buf)
				}
				sent <- nil
			}()
			for seq := uint64(0); seq < frames; seq++ {
				msg, err := b.RecvTimeout(10 * time.Second)
				if err != nil {
					t.Fatalf("frame %d: %v", seq, err)
				}
				runtime.Gosched()
				if len(msg) < 12 {
					t.Fatalf("frame %d: %d bytes", seq, len(msg))
				}
				if got := binary.LittleEndian.Uint64(msg); got != seq {
					t.Fatalf("frame %d arrived carrying sequence number %d", seq, got)
				}
				if got, want := binary.LittleEndian.Uint32(msg[8:]), crc32.ChecksumIEEE(msg[12:]); got != want {
					t.Fatalf("frame %d: checksum %08x, body sums to %08x", seq, got, want)
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
		})
	}
}
