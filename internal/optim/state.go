package optim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// StateMarshaler is implemented by optimizers whose internal state (step
// counters, moment vectors) can be captured into a byte blob and restored
// into a freshly constructed instance of the same shape. It is the seam
// the trainer's crash-safe checkpoints use: a resumed run rebuilds the
// optimizer with its constructor, then restores the serialized state, so
// the continued trajectory is bit-identical to an uninterrupted run.
//
// UnmarshalState never sizes an allocation from the blob: state vectors
// are written into the buffers the constructor already allocated, and a
// blob whose dimensions disagree with them is an error. That keeps a
// corrupt or truncated checkpoint from causing unbounded allocation.
type StateMarshaler interface {
	// MarshalState serializes the optimizer's mutable state. The result may
	// be a buffer the optimizer owns and overwrites on the next call (Adam's
	// is): it is valid until then, and a caller that keeps it copies it. A
	// caller that writes the state into a larger blob of its own uses the
	// optimizer's AppendState where it has one (Adam does), which skips this
	// buffer.
	MarshalState() []byte
	// UnmarshalState restores state captured by MarshalState on an
	// identically constructed optimizer. It returns an error (and leaves
	// the receiver unchanged) when the blob is truncated, oversized, or
	// sized for a different parameter dimension.
	UnmarshalState(data []byte) error
}

// MarshalState implements StateMarshaler. SGD carries no mutable state.
func (s *SGD) MarshalState() []byte { return nil }

// UnmarshalState implements StateMarshaler.
func (s *SGD) UnmarshalState(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("optim: SGD state must be empty, got %d bytes", len(data))
	}
	return nil
}

// StateLen is the length of the state AppendState appends: a step counter,
// the dimension, and two moments a dimension.
func (a *Adam) StateLen() int { return 16 + 16*len(a.mv) }

// AppendState appends the serialized state to dst and returns the extended
// slice; into a dst with StateLen bytes of spare capacity it writes in place
// and allocates nothing, which is how a checkpoint writes Adam's state
// straight into its blob. It is Adam's one state encoder: step counter,
// dimension, then the first and second moment vectors — all of m, then all
// of v, whatever the layout in memory.
func (a *Adam) AppendState(dst []byte) []byte {
	n, start := len(a.mv), len(dst)
	out := slices.Grow(dst, a.StateLen())[:start+a.StateLen()]
	state := out[start:]
	binary.LittleEndian.PutUint64(state, uint64(a.t))
	binary.LittleEndian.PutUint64(state[8:], uint64(n))
	ms, vs := state[16:16+8*n], state[16+8*n:]
	for i, mv := range a.mv {
		binary.LittleEndian.PutUint64(ms[i*8:], math.Float64bits(mv[0]))
		binary.LittleEndian.PutUint64(vs[i*8:], math.Float64bits(mv[1]))
	}
	return out
}

// MarshalState implements StateMarshaler: AppendState into a buffer the
// optimizer keeps, sized on the first call and overwritten in place after, so
// a warm call allocates nothing; the result is valid until the next call.
func (a *Adam) MarshalState() []byte {
	a.state = a.AppendState(a.state[:0])
	return a.state
}

// UnmarshalState implements StateMarshaler.
func (a *Adam) UnmarshalState(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("optim: Adam state truncated (%d bytes)", len(data))
	}
	t := binary.LittleEndian.Uint64(data)
	dim := binary.LittleEndian.Uint64(data[8:])
	n := len(a.mv)
	if dim != uint64(n) {
		return fmt.Errorf("optim: Adam state for dim %d, optimizer has dim %d", dim, n)
	}
	if want := 16 + 16*n; len(data) != want {
		return fmt.Errorf("optim: Adam state is %d bytes, want %d", len(data), want)
	}
	a.t = int(t)
	ms, vs := data[16:16+8*n], data[16+8*n:]
	for i := range a.mv {
		a.mv[i] = [2]float64{
			math.Float64frombits(binary.LittleEndian.Uint64(ms[i*8:])),
			math.Float64frombits(binary.LittleEndian.Uint64(vs[i*8:])),
		}
	}
	return nil
}
