package trainer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"sketchml/internal/optim"
)

// Checkpoint is a crash-safe snapshot of one training run's full replica
// state at a round boundary: every replica holds identical parameters and
// optimizer state (the bulk-synchronous invariant), so one driver-side
// snapshot is enough to resume the whole run. Restoring a checkpoint into
// an identically configured run (same dataset, seed, workers, batch
// fraction) continues the exact trajectory the interrupted run would have
// taken: parameters and optimizer state are restored bit-exactly and every
// worker fast-forwards its deterministic batcher to the checkpointed
// round.
type Checkpoint struct {
	// Rounds is the number of completed global rounds; the resumed run
	// starts at this round.
	Rounds int
	// RoundsPerEpoch pins the round geometry so a checkpoint taken under
	// one batch configuration cannot silently resume under another.
	RoundsPerEpoch int
	// Workers and Seed must match the resuming Config exactly: both feed
	// the per-worker batcher seeds that make the continuation
	// deterministic.
	Workers int
	Seed    int64
	// CodecName and ModelName guard against resuming with a different
	// compression or objective (checked, because either silently changes
	// the trajectory).
	CodecName string
	ModelName string
	// Theta is the parameter vector shared by every replica.
	Theta []float64
	// OptState is the optimizer's serialized mutable state (see
	// optim.StateMarshaler); empty for stateless optimizers. In the
	// checkpoint the driver lends OnCheckpoint it is also empty when the
	// optimizer can append its state in place (stateAppender; Adam can):
	// that checkpoint refers to the optimizer instead, and Marshal writes
	// the same bytes either way.
	OptState []byte

	// opt, set only in the lent checkpoint, stands in for OptState:
	// AppendMarshal has it append its state straight into the blob.
	opt stateAppender
}

// stateAppender is an optimizer that can write its state straight into a
// checkpoint blob: AppendMarshal sizes the blob once, with StateLen bytes for
// the state, and has AppendState fill them in place, so a checkpoint costs
// one serialization pass and no copy. The bytes are MarshalState's.
type stateAppender interface {
	StateLen() int
	AppendState(dst []byte) []byte
}

// Checkpoint wire format: a little-endian binary blob with a magic tag, a
// version, and a trailing CRC-32 (IEEE) over everything before it, so a
// torn write or bit rot is detected before any field is trusted.
const (
	checkpointMagic   = "SMCP"
	checkpointVersion = 1
	// checkpointMinLen is the fixed overhead: magic(4) + version(2) +
	// seed(8) + workers(4) + rounds(8) + roundsPerEpoch(8) + two name
	// lengths(2+2) + theta length(8) + opt length(8) + crc(4).
	checkpointMinLen = 4 + 2 + 8 + 4 + 8 + 8 + 2 + 2 + 8 + 8 + 4
)

// ErrCheckpointCorrupt wraps every structural decode failure, so callers
// can distinguish "this blob is damaged" from I/O errors.
var ErrCheckpointCorrupt = errors.New("trainer: corrupt checkpoint")

// Marshal serializes the checkpoint with its trailing checksum into a new
// blob.
func (c *Checkpoint) Marshal() []byte { return c.AppendMarshal(nil) }

// AppendMarshal is the one emitter of the checkpoint format: it overwrites
// dst from its start, sizing it once, and, like the codecs' appendRaw,
// stores every field at its computed offset — one pass over θ and the optimizer
// state, then the CRC. A lent checkpoint's optimizer appends its state
// straight into the blob, so the state is serialized once, there. Into a dst
// with room for the blob (the checkpoint store's) it allocates nothing.
func (c *Checkpoint) AppendMarshal(dst []byte) []byte {
	stateLen := len(c.OptState)
	if c.opt != nil {
		stateLen = c.opt.StateLen()
	}
	size := checkpointMinLen + len(c.CodecName) + len(c.ModelName) + 8*len(c.Theta) + stateLen
	out := slices.Grow(dst[:0], size)[:size]
	copy(out, checkpointMagic)
	binary.LittleEndian.PutUint16(out[4:], checkpointVersion)
	binary.LittleEndian.PutUint64(out[6:], uint64(c.Seed))
	binary.LittleEndian.PutUint32(out[14:], uint32(c.Workers))
	binary.LittleEndian.PutUint64(out[18:], uint64(c.Rounds))
	binary.LittleEndian.PutUint64(out[26:], uint64(c.RoundsPerEpoch))
	off := putName(out, 34, c.CodecName)
	off = putName(out, off, c.ModelName)
	binary.LittleEndian.PutUint64(out[off:], uint64(len(c.Theta)))
	off += 8
	theta := out[off : off+8*len(c.Theta)]
	for i, v := range c.Theta {
		binary.LittleEndian.PutUint64(theta[i*8:], math.Float64bits(v))
	}
	off += len(theta)
	binary.LittleEndian.PutUint64(out[off:], uint64(stateLen))
	off += 8
	if c.opt != nil {
		c.opt.AppendState(out[:off]) // out has the room: the state lands in place
	} else {
		copy(out[off:], c.OptState)
	}
	off += stateLen
	binary.LittleEndian.PutUint32(out[off:], crc32.ChecksumIEEE(out[:off]))
	return out
}

// putName stores a length-prefixed name at off and returns the offset past
// it.
func putName(out []byte, off int, name string) int {
	binary.LittleEndian.PutUint16(out[off:], uint16(len(name)))
	return off + 2 + copy(out[off+2:], name)
}

// cpReader walks a checkpoint blob with every read bounds-checked, so a
// truncated or hostile blob produces an error instead of a panic or an
// allocation sized by untrusted bytes.
type cpReader struct {
	data []byte
	off  int
}

func (r *cpReader) remaining() int { return len(r.data) - r.off }

func (r *cpReader) u16() (uint16, bool) {
	if r.remaining() < 2 {
		return 0, false
	}
	v := binary.LittleEndian.Uint16(r.data[r.off:])
	r.off += 2
	return v, true
}

func (r *cpReader) u32() (uint32, bool) {
	if r.remaining() < 4 {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, true
}

func (r *cpReader) u64() (uint64, bool) {
	if r.remaining() < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, true
}

func (r *cpReader) bytes(n int) ([]byte, bool) {
	if n < 0 || r.remaining() < n {
		return nil, false
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, true
}

// UnmarshalCheckpoint decodes and verifies a blob written by Marshal.
// Every length field is validated against the bytes actually present
// before any allocation it sizes, and the trailing CRC must match, so
// corrupt input can neither panic nor allocate unboundedly.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < checkpointMinLen {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrCheckpointCorrupt, len(data), checkpointMinLen)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got 0x%08x, want 0x%08x)", ErrCheckpointCorrupt, got, want)
	}
	r := &cpReader{data: body}
	magic, _ := r.bytes(4)
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpointCorrupt, magic)
	}
	ver, _ := r.u16()
	if ver != checkpointVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCheckpointCorrupt, ver)
	}
	var c Checkpoint
	seed, ok1 := r.u64()
	workers, ok2 := r.u32()
	rounds, ok3 := r.u64()
	rpe, ok4 := r.u64()
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return nil, fmt.Errorf("%w: truncated header", ErrCheckpointCorrupt)
	}
	// Rounds and geometry must fit int and be sane; a checkpoint with a
	// round counter beyond any plausible run is damage, not data.
	if rounds > 1<<40 || rpe > 1<<40 || workers > 1<<20 {
		return nil, fmt.Errorf("%w: implausible counters (rounds=%d rpe=%d workers=%d)", ErrCheckpointCorrupt, rounds, rpe, workers)
	}
	c.Seed = int64(seed)
	c.Workers = int(workers)
	c.Rounds = int(rounds)
	c.RoundsPerEpoch = int(rpe)
	nameLen, ok := r.u16()
	if !ok {
		return nil, fmt.Errorf("%w: truncated codec name", ErrCheckpointCorrupt)
	}
	name, ok := r.bytes(int(nameLen))
	if !ok {
		return nil, fmt.Errorf("%w: codec name overruns blob", ErrCheckpointCorrupt)
	}
	c.CodecName = string(name)
	nameLen, ok = r.u16()
	if !ok {
		return nil, fmt.Errorf("%w: truncated model name", ErrCheckpointCorrupt)
	}
	name, ok = r.bytes(int(nameLen))
	if !ok {
		return nil, fmt.Errorf("%w: model name overruns blob", ErrCheckpointCorrupt)
	}
	c.ModelName = string(name)
	thetaLen, ok := r.u64()
	if !ok {
		return nil, fmt.Errorf("%w: truncated theta length", ErrCheckpointCorrupt)
	}
	// The allocation below is sized by thetaLen only after proving the
	// blob actually carries that many floats.
	if thetaLen > uint64(r.remaining())/8 {
		return nil, fmt.Errorf("%w: theta length %d overruns blob (%d bytes left)", ErrCheckpointCorrupt, thetaLen, r.remaining())
	}
	c.Theta = make([]float64, thetaLen)
	for i := range c.Theta {
		bits, _ := r.u64()
		c.Theta[i] = math.Float64frombits(bits)
	}
	optLen, ok := r.u64()
	if !ok {
		return nil, fmt.Errorf("%w: truncated optimizer-state length", ErrCheckpointCorrupt)
	}
	if optLen > uint64(r.remaining()) {
		return nil, fmt.Errorf("%w: optimizer state %d overruns blob (%d bytes left)", ErrCheckpointCorrupt, optLen, r.remaining())
	}
	blob, _ := r.bytes(int(optLen))
	if optLen > 0 {
		c.OptState = append([]byte(nil), blob...)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointCorrupt, r.remaining())
	}
	return &c, nil
}

// checkpoint fills the driver's one Checkpoint at a round boundary and
// returns it for OnCheckpoint to borrow. Nothing is copied: Theta is the
// live vector, which nothing steps while the hook runs (every worker steps
// its own replica, and the driver's next step waits for the next round).
// The optimizer's state is the optimizer itself when it can append in place
// (stateAppender), so the hook's AppendMarshal serializes it once,
// into its own blob; otherwise OptState is the optimizer's marshal buffer
// (see optim.StateMarshaler). Both are absent when the optimizer cannot
// checkpoint, so a resume starts it fresh.
func (d *driver) checkpoint() *Checkpoint {
	cfg := d.cfg
	d.cp = Checkpoint{
		Rounds:         d.round,
		RoundsPerEpoch: d.plan.roundsPerEpoch,
		Workers:        cfg.Workers,
		Seed:           cfg.Seed,
		CodecName:      cfg.codec.Name(),
		ModelName:      cfg.Trainable.Name(),
		Theta:          d.theta,
	}
	if sm, ok := d.opt.(optim.StateMarshaler); ok {
		if sa, ok := sm.(stateAppender); ok {
			d.cp.opt = sa
		} else {
			d.cp.OptState = sm.MarshalState()
		}
	}
	return &d.cp
}

// validateResume checks that a checkpoint belongs to this run
// configuration; a mismatch means the continuation would silently diverge
// from the interrupted run, so it is an error, not a best effort.
func validateResume(cfg *Config, cp *Checkpoint, pDim uint64, roundsPerEpoch, totalRounds int) error {
	switch {
	case cp == nil:
		return nil
	case cp.Workers != cfg.Workers:
		return fmt.Errorf("trainer: resume: checkpoint has %d workers, config has %d", cp.Workers, cfg.Workers)
	case cp.Seed != cfg.Seed:
		return fmt.Errorf("trainer: resume: checkpoint seed %d, config seed %d", cp.Seed, cfg.Seed)
	case cp.RoundsPerEpoch != roundsPerEpoch:
		return fmt.Errorf("trainer: resume: checkpoint has %d rounds/epoch, run has %d (different batch geometry)", cp.RoundsPerEpoch, roundsPerEpoch)
	case cp.CodecName != cfg.codec.Name():
		return fmt.Errorf("trainer: resume: checkpoint codec %q, config codec %q", cp.CodecName, cfg.codec.Name())
	case cp.ModelName != cfg.Trainable.Name():
		return fmt.Errorf("trainer: resume: checkpoint model %q, config model %q", cp.ModelName, cfg.Trainable.Name())
	case uint64(len(cp.Theta)) != pDim:
		return fmt.Errorf("trainer: resume: checkpoint theta dim %d, model dim %d", len(cp.Theta), pDim)
	case cp.Rounds < 0 || cp.Rounds > totalRounds:
		return fmt.Errorf("trainer: resume: checkpoint at round %d, run has %d total", cp.Rounds, totalRounds)
	}
	return nil
}

// restoreOptimizer loads a checkpoint's optimizer state into a freshly
// constructed optimizer. State present but unsupported by the optimizer is
// an error: silently dropping it would restart the adaptive rates and
// change the trajectory.
func restoreOptimizer(opt optim.Optimizer, cp *Checkpoint) error {
	if cp == nil {
		return nil
	}
	state := cp.OptState
	if cp.opt != nil { // a lent checkpoint, resumed from as it is
		state = cp.opt.AppendState(nil)
	}
	if len(state) == 0 {
		return nil
	}
	sm, ok := opt.(optim.StateMarshaler)
	if !ok {
		return fmt.Errorf("trainer: resume: checkpoint carries optimizer state but %s cannot restore it", opt.Name())
	}
	if err := sm.UnmarshalState(state); err != nil {
		return fmt.Errorf("trainer: resume: %w", err)
	}
	return nil
}
