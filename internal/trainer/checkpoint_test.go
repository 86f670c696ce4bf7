package trainer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
	"testing"

	"sketchml/internal/codec"
	"sketchml/internal/model"
	"sketchml/internal/optim"
)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Rounds:         17,
		RoundsPerEpoch: 10,
		Workers:        4,
		Seed:           -9,
		CodecName:      "sketch(q=256,s=2,r=8)",
		ModelName:      "LR",
		Theta:          []float64{0.5, -1.25, 0, 3e300, -0.0},
		OptState:       []byte{1, 2, 3, 4, 5},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	back, err := UnmarshalCheckpoint(cp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Rounds != cp.Rounds || back.RoundsPerEpoch != cp.RoundsPerEpoch ||
		back.Workers != cp.Workers || back.Seed != cp.Seed ||
		back.CodecName != cp.CodecName || back.ModelName != cp.ModelName {
		t.Fatalf("header did not round-trip: %+v vs %+v", back, cp)
	}
	if len(back.Theta) != len(cp.Theta) {
		t.Fatalf("theta length %d, want %d", len(back.Theta), len(cp.Theta))
	}
	for i := range cp.Theta {
		if back.Theta[i] != cp.Theta[i] && !(back.Theta[i] != back.Theta[i] && cp.Theta[i] != cp.Theta[i]) {
			t.Fatalf("theta[%d] = %v, want %v", i, back.Theta[i], cp.Theta[i])
		}
	}
	if !bytes.Equal(back.OptState, cp.OptState) {
		t.Fatalf("optimizer state did not round-trip")
	}
}

// TestAppendMarshalMatchesMarshal pins AppendMarshal's buffer contract: it
// overwrites dst from its start, so a dirty, oversized buffer comes back
// holding exactly Marshal's bytes, in place; a buffer too short is grown.
func TestAppendMarshalMatchesMarshal(t *testing.T) {
	cp := sampleCheckpoint()
	want := cp.Marshal()
	dirty := bytes.Repeat([]byte{0xa5}, 3*len(want))
	got := cp.AppendMarshal(dirty)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendMarshal into a dirty buffer:\n got %x\nwant %x", got, want)
	}
	if &got[0] != &dirty[0] {
		t.Error("AppendMarshal reallocated a buffer that had room for the blob")
	}
	if got := cp.AppendMarshal(make([]byte, 3)); !bytes.Equal(got, want) {
		t.Fatalf("AppendMarshal into a short buffer:\n got %x\nwant %x", got, want)
	}
}

// TestCheckpointParentFormat holds the format across PR 25, which made
// Marshal AppendMarshal(nil): testdata/checkpoint-v1.bin is sampleCheckpoint
// as Marshal wrote it at the parent commit (49021d4). It still decodes, and
// today's Marshal writes the same bytes, so checkpoints cross the change in
// both directions.
func TestCheckpointParentFormat(t *testing.T) {
	golden, err := os.ReadFile("testdata/checkpoint-v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCheckpoint(golden)
	if err != nil {
		t.Fatal(err)
	}
	if want := sampleCheckpoint(); !reflect.DeepEqual(back, want) {
		t.Fatalf("parent blob decodes to %+v, want %+v", back, want)
	}
	if !bytes.Equal(sampleCheckpoint().Marshal(), golden) {
		t.Fatal("Marshal no longer writes the parent's bytes")
	}
}

// TestCheckpointWarmAllocs is the allocation contract of a checkpoint
// boundary (DESIGN.md "Allocation contract"): the driver fills its one
// Checkpoint — θ borrowed, Adam lent as itself — and the blob is written into
// one buffer that the next boundary overwrites, as the service store does.
// The first boundary allocates that blob and nothing else: Adam appends its
// state straight into it, so its own marshal buffer is never sized. After
// it, nothing is allocated. The path starts no goroutine, so AllocsPerRun's
// GOMAXPROCS 1 is every setting's count.
func TestCheckpointWarmAllocs(t *testing.T) {
	const dim = 100_000
	cfg := Config{
		Trainable: model.Wrap(model.LogisticRegression{}),
		codec:     codec.MustSketchML(codec.DefaultOptions()), // the driver's instance, as fill builds it
		Workers:   4,
		Seed:      1,
	}
	d := &driver{
		cfg:   &cfg,
		plan:  &runPlan{roundsPerEpoch: 10},
		theta: make([]float64, dim),
		opt:   optim.NewAdam(0.1, dim),
		round: 10,
	}
	var blob []byte
	boundary := func() { blob = d.checkpoint().AppendMarshal(blob) }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	boundary()
	runtime.ReadMemStats(&after)
	// Under -race the compiler does not fuse slices.Grow's append of a make,
	// so every growth allocates twice and the byte reading skips.
	if grown := after.TotalAlloc - before.TotalAlloc; !raceEnabled && float64(grown) > 1.1*float64(len(blob)) {
		t.Errorf("the first checkpoint allocates %d B for a %d-byte blob: the optimizer state is copied, not appended in place", grown, len(blob))
	}
	if d.cp.opt == nil || d.cp.OptState != nil {
		t.Error("the driver lends Adam's state as a buffer, not as the optimizer")
	}
	if allocs := testing.AllocsPerRun(10, boundary); allocs != 0 {
		t.Errorf("warm checkpoint allocates %v objects/op, want 0", allocs)
	}
	back, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rounds != 10 || back.Workers != 4 || len(back.Theta) != dim || len(back.OptState) != 16+16*dim {
		t.Fatalf("warm checkpoint decodes to rounds %d, workers %d, %d θ, %d state bytes",
			back.Rounds, back.Workers, len(back.Theta), len(back.OptState))
	}
}

// marshalOnly forwards an Adam's StateMarshaler methods and hides its
// AppendState, as a wrapper that forwards only optim.StateMarshaler does.
type marshalOnly struct {
	optim.Optimizer
	adam *optim.Adam
}

func (m marshalOnly) MarshalState() []byte             { return m.adam.MarshalState() }
func (m marshalOnly) UnmarshalState(data []byte) error { return m.adam.UnmarshalState(data) }

// TestLentCheckpointMarshalsParentBytes holds the lent checkpoint to the
// bytes of the copying path: at every epoch boundary of a short run, the
// checkpoint OnCheckpoint borrows marshals — whole, and into a dirty buffer —
// to exactly the blob of its header and θ with the optimizer's MarshalState
// copied in as OptState. Adam is lent as itself; an optimizer that offers
// only MarshalState lends its buffer, as before; SGD lends no state.
func TestLentCheckpointMarshalsParentBytes(t *testing.T) {
	train, test := smallData(t)
	for _, tc := range []struct {
		name    string
		opt     func(dim uint64) optim.Optimizer
		inPlace bool
	}{
		{"Adam", func(dim uint64) optim.Optimizer { return optim.NewAdam(0.1, dim) }, true},
		{"MarshalStateOnlyAdam", func(dim uint64) optim.Optimizer {
			a := optim.NewAdam(0.1, dim)
			return marshalOnly{a, a}
		}, false},
		{"SGD", func(uint64) optim.Optimizer { return optim.NewSGD(0.1) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := lifecycleConfig()
			cfg.Optimizer = tc.opt
			cfg.CheckpointEvery = 1
			var dirty []byte
			boundaries := 0
			cfg.OnCheckpoint = func(cp *Checkpoint) error {
				boundaries++
				if (cp.opt != nil) != tc.inPlace {
					t.Errorf("round %d: optimizer lent in place = %v, want %v", cp.Rounds, cp.opt != nil, tc.inPlace)
				}
				parent := *cp
				if cp.opt != nil {
					parent.opt, parent.OptState = nil, cp.opt.(optim.StateMarshaler).MarshalState()
				}
				want := parent.Marshal()
				if !bytes.Equal(cp.Marshal(), want) {
					t.Errorf("round %d: the lent checkpoint marshals to other bytes than θ + MarshalState", cp.Rounds)
				}
				dirty = append(dirty[:0], bytes.Repeat([]byte{0xa5}, len(want)+7)...)
				if !bytes.Equal(cp.AppendMarshal(dirty), want) {
					t.Errorf("round %d: AppendMarshal into a dirty buffer differs from Marshal", cp.Rounds)
				}
				return nil
			}
			if _, err := Run(cfg, train, test); err != nil {
				t.Fatal(err)
			}
			if boundaries != cfg.Epochs {
				t.Fatalf("%d checkpoints, want one per epoch (%d)", boundaries, cfg.Epochs)
			}
		})
	}
}

// TestResumeFromLentCheckpoint resumes from the drain checkpoint a run lent
// its hook, kept as it is, and from its serialized copy: both continue to
// the same loss, bit for bit. The lent checkpoint refers to the optimizer
// instead of carrying OptState, so the resume reads Adam's state from it;
// dropping it would restart the moments and move the trajectory.
func TestResumeFromLentCheckpoint(t *testing.T) {
	train, test := smallData(t)
	drain := make(chan struct{})
	var cp *Checkpoint // the last, the drain's: nothing runs after it
	cfg := lifecycleConfig()
	cfg.Drain = drain
	cfg.OnCheckpoint = func(c *Checkpoint) error {
		if cp == nil {
			close(drain)
		}
		cp = c
		return nil
	}
	if _, err := Run(cfg, train, test); err != nil {
		t.Fatal(err)
	}
	if cp.opt == nil {
		t.Fatal("the drain checkpoint does not lend Adam in place")
	}
	copied, err := UnmarshalCheckpoint(cp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for _, resume := range []*Checkpoint{cp, copied} {
		cfg := lifecycleConfig()
		cfg.Resume = resume
		res, err := Run(cfg, train, test)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, res.FinalLoss)
	}
	if math.Float64bits(losses[0]) != math.Float64bits(losses[1]) {
		t.Fatalf("resumed from the lent checkpoint to loss %v, from its copy to %v", losses[0], losses[1])
	}
}

func TestCheckpointCorruptionDetected(t *testing.T) {
	blob := sampleCheckpoint().Marshal()
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"truncated header", func(b []byte) []byte { return b[:checkpointMinLen-1] }},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-10] }},
		{"bit flip in body", func(b []byte) []byte { b[10] ^= 0x40; return b }},
		{"bit flip in crc", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"bad magic", func(b []byte) []byte {
			copy(b[0:4], "NOPE")
			return fixCRC(b)
		}},
		{"bad version", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 99)
			return fixCRC(b)
		}},
		{"implausible workers", func(b []byte) []byte {
			// workers field sits after magic(4)+version(2)+seed(8).
			binary.LittleEndian.PutUint32(b[14:18], 1<<21)
			return fixCRC(b)
		}},
		{"theta overruns blob", func(b []byte) []byte {
			// theta length sits after the two names; recompute its offset.
			off := 4 + 2 + 8 + 4 + 8 + 8
			nameLen := int(binary.LittleEndian.Uint16(b[off:]))
			off += 2 + nameLen
			nameLen = int(binary.LittleEndian.Uint16(b[off:]))
			off += 2 + nameLen
			binary.LittleEndian.PutUint64(b[off:], 1<<50)
			return fixCRC(b)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), blob...))
			cp, err := UnmarshalCheckpoint(mut)
			if err == nil {
				t.Fatalf("corrupt blob accepted: %+v", cp)
			}
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("error does not wrap ErrCheckpointCorrupt: %v", err)
			}
		})
	}
}

// fixCRC rewrites the trailing checksum after a deliberate field mutation,
// so the test exercises the structural validator rather than the CRC.
func fixCRC(b []byte) []byte {
	body := b[:len(b)-4]
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

// FuzzCheckpointDecode feeds arbitrary bytes to the checkpoint decoder: it
// must never panic and never allocate a slice sized by an unvalidated
// length field, and everything it accepts must re-marshal to a blob that
// decodes to the same checkpoint (a round-trip fixed point).
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(checkpointMagic))
	f.Add(sampleCheckpoint().Marshal())
	small := (&Checkpoint{CodecName: "raw", ModelName: "LR", Theta: []float64{1}}).Marshal()
	f.Add(small)
	trunc := append([]byte(nil), small...)
	f.Add(trunc[:len(trunc)-6])
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := UnmarshalCheckpoint(data)
		if err != nil {
			if cp != nil {
				t.Fatal("error with non-nil checkpoint")
			}
			return
		}
		back, err := UnmarshalCheckpoint(cp.Marshal())
		if err != nil {
			t.Fatalf("accepted blob did not re-decode: %v", err)
		}
		if back.Rounds != cp.Rounds || len(back.Theta) != len(cp.Theta) || back.CodecName != cp.CodecName {
			t.Fatalf("round trip not a fixed point: %+v vs %+v", back, cp)
		}
	})
}
