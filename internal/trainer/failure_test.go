package trainer

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sketchml/internal/codec"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
	"sketchml/internal/obs"
)

// faultyCodec wraps a working codec and starts failing after `failAfter`
// operations, simulating a mid-training fault. The op counter is atomic
// because Decode must be concurrency-safe (the driver decodes worker
// messages on W goroutines sharing one codec).
type faultyCodec struct {
	inner      codec.Codec
	failAfter  int64
	ops        atomic.Int64
	failEncode bool
	failDecode bool
}

func (f *faultyCodec) Name() string { return "faulty" }

func (f *faultyCodec) Encode(g *gradient.Sparse) ([]byte, error) {
	if f.ops.Add(1) > f.failAfter && f.failEncode {
		return nil, errors.New("injected encode fault")
	}
	return f.inner.Encode(g)
}

func (f *faultyCodec) Decode(data []byte) (*gradient.Sparse, error) {
	if f.ops.Add(1) > f.failAfter && f.failDecode {
		return nil, errors.New("injected decode fault")
	}
	return f.inner.Decode(data)
}

// corruptingCodec emits valid-looking but truncated messages after a while,
// so the RECEIVER's decode fails rather than the sender's encode.
type corruptingCodec struct {
	inner codec.Codec
	ops   atomic.Int64
	after int64
}

func (c *corruptingCodec) Name() string { return "corrupting" }

func (c *corruptingCodec) Encode(g *gradient.Sparse) ([]byte, error) {
	msg, err := c.inner.Encode(g)
	if err != nil {
		return nil, err
	}
	if c.ops.Add(1) > c.after && len(msg) > 4 {
		return msg[:len(msg)/2], nil
	}
	return msg, nil
}

func (c *corruptingCodec) Decode(data []byte) (*gradient.Sparse, error) {
	return c.inner.Decode(data)
}

// runWithTimeout guards against the failure modes hanging the trainer.
func runWithTimeout(t *testing.T, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("training hung after injected fault")
		return nil
	}
}

func TestEncodeFaultPropagates(t *testing.T) {
	train, test := smallData(t)
	err := runWithTimeout(t, func() error {
		_, err := Run(Config{
			Trainable: model.Wrap(model.LogisticRegression{}),
			CodecFactory: func() codec.Codec {
				return &faultyCodec{inner: &codec.Raw{}, failAfter: 5, failEncode: true}
			},
			Optimizer: adamFactory(0.1),
			Workers:   3, Epochs: 2, Seed: 1,
		}, train, test)
		return err
	})
	if err == nil {
		t.Fatal("injected encode fault was swallowed")
	}
	if !strings.Contains(err.Error(), "fault") && !strings.Contains(err.Error(), "recv") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestDecodeFaultPropagates(t *testing.T) {
	train, test := smallData(t)
	err := runWithTimeout(t, func() error {
		_, err := Run(Config{
			Trainable: model.Wrap(model.LogisticRegression{}),
			CodecFactory: func() codec.Codec {
				return &faultyCodec{inner: &codec.Raw{}, failAfter: 5, failDecode: true}
			},
			Optimizer: adamFactory(0.1),
			Workers:   3, Epochs: 2, Seed: 1,
		}, train, test)
		return err
	})
	if err == nil {
		t.Fatal("injected decode fault was swallowed")
	}
}

func TestCorruptMessagePropagates(t *testing.T) {
	// Truncated wire bytes must surface as a decode error at the receiver,
	// not a panic or a silent bad gradient.
	train, test := smallData(t)
	err := runWithTimeout(t, func() error {
		_, err := Run(Config{
			Trainable: model.Wrap(model.LogisticRegression{}),
			CodecFactory: func() codec.Codec {
				return &corruptingCodec{inner: codec.MustSketchML(codec.DefaultOptions()), after: 4}
			},
			Optimizer: adamFactory(0.1),
			Workers:   2, Epochs: 2, Seed: 1,
		}, train, test)
		return err
	})
	if err == nil {
		t.Fatal("corrupted message was accepted")
	}
}

// TestFailingEpochSpanRecorded: the epoch a fault cuts short is the one a
// post-mortem wants, so its span is in the ring although the run returned
// past the epoch boundary. Worker 1's codec (the factory's third instance:
// the driver's comes first, then the workers' in order) fails its fourth
// encode, the worker exits, and its link dies under the strict gather of
// round 3, well inside the first epoch.
func TestFailingEpochSpanRecorded(t *testing.T) {
	train, test := smallData(t)
	reg := obs.NewRegistry()
	var built atomic.Int64
	err := runWithTimeout(t, func() error {
		_, err := Run(Config{
			Trainable: model.Wrap(model.LogisticRegression{}),
			CodecFactory: func() codec.Codec {
				c := &faultyCodec{inner: &codec.Raw{}, failAfter: math.MaxInt64, failEncode: true}
				if built.Add(1) == 3 {
					c.failAfter = 6
				}
				return c
			},
			Optimizer: adamFactory(0.1),
			Workers:   3, Epochs: 2, Seed: 1,
			Metrics: reg,
		}, train, test)
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "worker 1") {
		t.Fatalf("want the dead link of worker 1 as the error, got %v", err)
	}
	for _, sp := range reg.Snapshot().Spans {
		if sp.Name == "epoch" {
			return
		}
	}
	t.Errorf("no epoch span recorded for the epoch that failed: %+v", reg.Snapshot().Spans)
}
