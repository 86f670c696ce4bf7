package trainer

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
)

// maxFuzzMsgs bounds how many messages one FuzzRecvFrame input queues.
const maxFuzzMsgs = 16

// packMsgs joins messages into one fuzz input: each is its uint16 LE length
// followed by its bytes.
func packMsgs(msgs ...[]byte) []byte {
	var out []byte
	for _, m := range msgs {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(m)))
		out = append(out, m...)
	}
	return out
}

// unpackMsgs splits a fuzz input back into at most maxFuzzMsgs messages; a
// length that runs past the end takes what is left.
func unpackMsgs(data []byte) [][]byte {
	var msgs [][]byte
	for len(data) >= 2 && len(msgs) < maxFuzzMsgs {
		n := min(int(binary.LittleEndian.Uint16(data)), len(data)-2)
		msgs = append(msgs, data[2:2+n])
		data = data[2+n:]
	}
	return msgs
}

// FuzzRecvFrame queues arbitrary messages on a link, closes the sending
// end, and waits for round fuzzRound's gradient through recvFrame in both
// modes, with and without a later round matching. Whatever arrives, the
// wait ends (the closed link ends it at the latest) without a panic; a
// returned payload is the codec message of a checksum-valid frameGrad or
// frameAgg whose tag the want accepts and whose count is in [1, W], decoded
// with codec.Raw; a stop comes from a valid stop frame; and no frame is
// counted corrupt or stale twice.
func FuzzRecvFrame(f *testing.F) {
	const workers, fuzzRound = 4, 5
	raw := &codec.Raw{}
	msg, err := raw.Encode(&gradient.Sparse{Dim: 64, Keys: []uint64{3, 9}, Values: []float64{0.5, -1}})
	if err != nil {
		f.Fatal(err)
	}
	good := appendFrame(nil, frameGrad, fuzzRound, msg)
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x04
	for _, seed := range [][][]byte{
		{good},
		{appendFrame(nil, frameGrad, fuzzRound-1, msg), good},
		{appendFrame(nil, frameGrad, fuzzRound+2, msg), good},
		{appendFrame(nil, frameStop, fuzzRound, nil), good},
		{appendAggFrame(nil, fuzzRound, 0, msg), good},
		{appendAggFrame(nil, fuzzRound, workers+1, msg), appendAggFrame(nil, fuzzRound, 3, msg)},
		{good[:frameHeaderLen-1], good[:len(good)-3], good},
		{flipped, good},
		{appendFrame(nil, frameReport, fuzzRound, make([]byte, workerReportLen)), appendFrame(nil, frameGrad, fuzzRound, []byte{1, 2, 3})},
	} {
		f.Add(packMsgs(seed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := unpackMsgs(data)
		cfg := Config{codec: raw, Workers: workers}
		for _, budget := range []time.Duration{0, time.Minute} {
			for _, orLater := range []bool{false, true} {
				driverEnd, workerEnd := cluster.Pair(len(msgs))
				for _, m := range msgs {
					if err := workerEnd.Send(m); err != nil {
						t.Fatal(err)
					}
				}
				_ = workerEnd.Close()
				want := frameWant{from: 0, kind: frameGrad, round: fuzzRound, orLater: orLater}
				var dst gradient.Sparse
				r := recvFrame(&cfg, driverEnd, want, budget, &dst)
				checkRecv(t, msgs, want, budget, workers, r)
			}
		}
	})
}

// checkRecv holds one recvFrame outcome on msgs to FuzzRecvFrame's
// invariants.
func checkRecv(t *testing.T, msgs [][]byte, want frameWant, budget time.Duration, workers int, r frameRecv) {
	t.Helper()
	if r.corrupt+r.stale > len(msgs) {
		t.Fatalf("%d corrupt + %d stale frames from %d messages", r.corrupt, r.stale, len(msgs))
	}
	if budget <= 0 && r.corrupt+r.stale != 0 {
		t.Fatalf("strict wait discarded %d corrupt and %d stale frames", r.corrupt, r.stale)
	}
	if r.timeouts != 0 {
		t.Fatalf("a closed link's wait timed out (%d)", r.timeouts)
	}
	switch {
	case r.stop:
		if r.payload != nil || r.err != nil {
			t.Fatalf("stop with payload %v, err %v", r.payload, r.err)
		}
		for _, m := range msgs {
			if kind, _, _, err := parseFrame(m); err == nil && kind == frameStop {
				return
			}
		}
		t.Fatal("stop reported with no valid stop frame sent")
	case r.payload != nil:
		if r.err != nil || r.g == nil {
			t.Fatalf("payload returned with err %v, decoded %v", r.err, r.g)
		}
		for _, m := range msgs {
			kind, tag, payload, err := parseFrame(m)
			wanted := tag == want.round || want.orLater && tag > want.round
			if err != nil || kind != frameGrad && kind != frameAgg || !wanted || tag != r.round {
				continue
			}
			count := 1
			if kind == frameAgg {
				if count, payload, err = parseAggFrame(payload); err != nil || count > workers {
					continue
				}
			}
			if count == r.count && bytes.Equal(payload, r.payload) {
				return
			}
		}
		t.Fatalf("payload %x (round %d, count %d) matches no valid wanted frame sent", r.payload, r.round, r.count)
	case r.err == nil:
		t.Fatal("the wait ended with no frame, no stop and no error")
	}
}
