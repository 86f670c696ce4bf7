package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// chaosSequence pushes n distinct frames through a ChaosConn pair and
// returns the frames actually delivered (in order) plus the fault tallies.
func chaosSequence(t *testing.T, spec ChaosSpec, n int) ([][]byte, FaultCounts) {
	t.Helper()
	a, b := Pair(n * 2)
	defer a.Close()
	cc := NewChaos(a, spec)
	for i := 0; i < n; i++ {
		if err := cc.Send([]byte(fmt.Sprintf("frame-%04d-payload", i))); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	for {
		msg, err := b.RecvTimeout(20 * time.Millisecond)
		if err != nil {
			break
		}
		got = append(got, msg)
	}
	return got, cc.Faults()
}

func TestChaosDeterministicSchedule(t *testing.T) {
	spec := ChaosSpec{
		Seed:     41,
		SendDrop: 0.2, SendCorrupt: 0.2, SendDup: 0.1,
	}
	g1, f1 := chaosSequence(t, spec, 200)
	g2, f2 := chaosSequence(t, spec, 200)
	if f1 != f2 {
		t.Fatalf("fault schedule not reproducible: %+v vs %+v", f1, f2)
	}
	if len(g1) != len(g2) {
		t.Fatalf("delivered %d vs %d frames", len(g1), len(g2))
	}
	for i := range g1 {
		if !bytes.Equal(g1[i], g2[i]) {
			t.Fatalf("frame %d differs across identically seeded runs", i)
		}
	}
	if f1.SendDrops == 0 || f1.SendCorrupts == 0 || f1.SendDups == 0 {
		t.Fatalf("expected every fault kind to fire over 200 frames: %+v", f1)
	}
	// Rough sanity on the drop rate: 200 frames at p=0.2 should lose
	// between 10 and 80.
	if f1.SendDrops < 10 || f1.SendDrops > 80 {
		t.Errorf("drop count %d wildly off a 0.2 rate over 200 frames", f1.SendDrops)
	}
}

func TestChaosSeedChangesSchedule(t *testing.T) {
	spec := ChaosSpec{Seed: 1, SendDrop: 0.3}
	_, f1 := chaosSequence(t, spec, 300)
	spec.Seed = 2
	_, f2 := chaosSequence(t, spec, 300)
	if f1.SendDrops == f2.SendDrops {
		t.Skip("seeds coincidentally dropped the same count; statistically possible")
	}
}

func TestChaosCorruptionChangesBytesOnly(t *testing.T) {
	// With only corruption enabled, every frame arrives, in order, same
	// length — but some differ from what was sent.
	a, b := Pair(64)
	defer a.Close()
	cc := NewChaos(a, ChaosSpec{Seed: 7, SendCorrupt: 0.5})
	const n = 40
	sent := make([][]byte, n)
	for i := 0; i < n; i++ {
		sent[i] = []byte(fmt.Sprintf("payload-%08d", i))
		if err := cc.Send(sent[i]); err != nil {
			t.Fatal(err)
		}
	}
	changed := 0
	for i := 0; i < n; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(sent[i]) {
			t.Fatalf("frame %d length changed: %d vs %d", i, len(got), len(sent[i]))
		}
		if !bytes.Equal(got, sent[i]) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("0.5 corruption rate corrupted nothing over 40 frames")
	}
	if got := cc.Faults().SendCorrupts; int64(changed) != got {
		t.Errorf("observed %d corrupted frames, counter says %d", changed, got)
	}
	// The sender's own buffers must never be mutated.
	for i, msg := range sent {
		if want := fmt.Sprintf("payload-%08d", i); string(msg) != want {
			t.Fatalf("Send corrupted the caller's buffer at frame %d", i)
		}
	}
}

func TestChaosOutageWindowDropsBothDirections(t *testing.T) {
	a, b := Pair(64)
	defer a.Close()
	spec := ChaosSpec{Seed: 3, Outage: OutageWindow{Start: 2, End: 4}}
	cc := NewChaos(a, spec)
	// Send ordinals 0..5: 2 and 3 fall in the window.
	for i := 0; i < 6; i++ {
		if err := cc.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	for {
		msg, err := b.RecvTimeout(20 * time.Millisecond)
		if err != nil {
			break
		}
		got = append(got, msg[0])
	}
	if want := []byte{0, 1, 4, 5}; !bytes.Equal(got, want) {
		t.Fatalf("outage delivered %v, want %v", got, want)
	}
	// Recv direction: ordinals 0..3, window [2,4) swallows the last two.
	for i := 10; i < 14; i++ {
		if err := b.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []byte{10, 11} {
		msg, err := cc.RecvTimeout(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if msg[0] != want {
			t.Fatalf("got frame %d, want %d", msg[0], want)
		}
	}
	if _, err := cc.RecvTimeout(30 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("frames inside the outage window leaked through: %v", err)
	}
	if oc := cc.Faults().OutageDrops; oc != 4 {
		t.Errorf("outage drop count = %d, want 4", oc)
	}
}

func TestChaosRecvDupDeliversTwice(t *testing.T) {
	a, b := Pair(8)
	defer a.Close()
	cc := NewChaos(a, ChaosSpec{Seed: 5, RecvDup: 1.0})
	if err := b.Send([]byte("once")); err != nil {
		t.Fatal(err)
	}
	first, err := cc.Recv()
	if err != nil {
		t.Fatal(err)
	}
	second, err := cc.RecvTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("duplicate differs: %q vs %q", first, second)
	}
}

func TestChaosRecvDropConsumesDeadline(t *testing.T) {
	// Every inbound frame dropped: the receive must time out rather than
	// spin or deliver.
	a, b := Pair(8)
	defer a.Close()
	cc := NewChaos(a, ChaosSpec{Seed: 9, RecvDrop: 1.0})
	for i := 0; i < 5; i++ {
		if err := b.Send([]byte("lost")); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, err := cc.RecvTimeout(50 * time.Millisecond)
	if err != ErrTimeout {
		t.Fatalf("RecvTimeout = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("drop loop ignored the deadline")
	}
}

func TestChaosPassthroughWhenZero(t *testing.T) {
	// The zero spec must be a faithful pipe.
	a, b := Pair(8)
	defer a.Close()
	cc := NewChaos(a, ChaosSpec{Seed: 123})
	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("m%d", i))
		if err := cc.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("frame %d altered by zero spec", i)
		}
	}
	if f := cc.Faults(); f != (FaultCounts{}) {
		t.Errorf("zero spec injected faults: %+v", f)
	}
}
