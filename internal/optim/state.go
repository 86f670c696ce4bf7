package optim

import (
	"encoding/binary"
	"fmt"
	"math"
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
	// MarshalState serializes the optimizer's mutable state.
	MarshalState() []byte
	// UnmarshalState restores state captured by MarshalState on an
	// identically constructed optimizer. It returns an error (and leaves
	// the receiver unchanged) when the blob is truncated, oversized, or
	// sized for a different parameter dimension.
	UnmarshalState(data []byte) error
}

// appendFloats appends each value's IEEE-754 bits little-endian.
func appendFloats(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// readFloats fills dst from the blob's little-endian float64 bits.
func readFloats(dst []float64, data []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
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

// MarshalState implements StateMarshaler: step counter, dimension, then
// the first and second moment vectors — all of m, then all of v, whatever
// the layout in memory.
func (a *Adam) MarshalState() []byte {
	n := len(a.mv)
	out := make([]byte, 16+16*n)
	binary.LittleEndian.PutUint64(out, uint64(a.t))
	binary.LittleEndian.PutUint64(out[8:], uint64(n))
	ms, vs := out[16:16+8*n], out[16+8*n:]
	for i, mv := range a.mv {
		binary.LittleEndian.PutUint64(ms[i*8:], math.Float64bits(mv[0]))
		binary.LittleEndian.PutUint64(vs[i*8:], math.Float64bits(mv[1]))
	}
	return out
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

// MarshalState implements StateMarshaler: dimension, then the accumulated
// squared-gradient vector.
func (a *AdaGrad) MarshalState() []byte {
	out := make([]byte, 0, 8+8*len(a.sum))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(a.sum)))
	return appendFloats(out, a.sum)
}

// UnmarshalState implements StateMarshaler.
func (a *AdaGrad) UnmarshalState(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("optim: AdaGrad state truncated (%d bytes)", len(data))
	}
	dim := binary.LittleEndian.Uint64(data)
	if dim != uint64(len(a.sum)) {
		return fmt.Errorf("optim: AdaGrad state for dim %d, optimizer has dim %d", dim, len(a.sum))
	}
	if want := 8 + 8*len(a.sum); len(data) != want {
		return fmt.Errorf("optim: AdaGrad state is %d bytes, want %d", len(data), want)
	}
	readFloats(a.sum, data[8:])
	return nil
}

// MarshalState implements StateMarshaler: step counter, dimension, the
// velocity vector, then the per-dimension step stamps.
func (m *Momentum) MarshalState() []byte {
	out := make([]byte, 0, 16+16*len(m.vel))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.t))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(m.vel)))
	out = appendFloats(out, m.vel)
	for _, s := range m.stamp {
		out = binary.LittleEndian.AppendUint64(out, uint64(s))
	}
	return out
}

// UnmarshalState implements StateMarshaler.
func (m *Momentum) UnmarshalState(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("optim: Momentum state truncated (%d bytes)", len(data))
	}
	t := binary.LittleEndian.Uint64(data)
	dim := binary.LittleEndian.Uint64(data[8:])
	if dim != uint64(len(m.vel)) {
		return fmt.Errorf("optim: Momentum state for dim %d, optimizer has dim %d", dim, len(m.vel))
	}
	if want := 16 + 16*len(m.vel); len(data) != want {
		return fmt.Errorf("optim: Momentum state is %d bytes, want %d", len(data), want)
	}
	m.t = int(t)
	readFloats(m.vel, data[16:])
	off := 16 + 8*len(m.vel)
	for i := range m.stamp {
		m.stamp[i] = int(binary.LittleEndian.Uint64(data[off+i*8:]))
	}
	return nil
}

// MarshalState implements StateMarshaler: the schedule step counter plus
// the wrapped SGD's state (empty today, but kept nested so the format
// survives SGD growing state).
func (s *Scheduled) MarshalState() []byte {
	out := make([]byte, 0, 8)
	return binary.LittleEndian.AppendUint64(out, uint64(s.t))
}

// UnmarshalState implements StateMarshaler.
func (s *Scheduled) UnmarshalState(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("optim: Scheduled state is %d bytes, want 8", len(data))
	}
	s.t = int(binary.LittleEndian.Uint64(data))
	s.base.LR = s.baseLR
	if s.t > 0 {
		s.base.LR = s.baseLR * s.schedule.Factor(s.t)
	}
	return nil
}
