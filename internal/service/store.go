package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sketchml/internal/obs"
	"sketchml/internal/trainer"
)

// maxCheckpointFile bounds a checkpoint file read back from disk. The
// in-memory layer never hits it; it exists so a corrupted or swapped file
// cannot make Load allocate unboundedly before the CRC check rejects it.
const maxCheckpointFile = 1 << 30

// CheckpointStore persists the latest checkpoint per job name. Memory is
// the source of truth while the process lives; when a directory is
// configured, every checkpoint is also flushed to disk crash-safely (temp
// file + fsync + rename + directory fsync, so a crash leaves either the old
// complete checkpoint or the new complete one, never a torn file) and loads
// fall back to disk, which is how a restarted process resumes jobs it hosted
// before the crash. The trailing CRC of the checkpoint format rejects torn or
// rotted files at load time.
//
// Saving is two steps. Stage marshals the checkpoint into the name's one
// blob, overwriting the last — the caller's checkpoint may be borrowed live
// state, so what the store keeps is always its own marshaled copy, and for a
// checkpoint the trainer lends, the optimizer appends its state straight into
// that blob. Flush writes the blob to disk. Save runs both and returns once
// the file is durable; a job's hook (saveBehind) stages and starts the flush
// on a goroutine, so the write overlaps the next epoch. At most one flush per
// name is in flight: the next stage, the end of the job's attempt (wait) and
// Delete all wait for it, and Server.Close waits for every attempt.
type CheckpointStore struct {
	mu    sync.Mutex
	slots map[string]*slot
	dir   string // "" = memory only

	savedBytes *obs.Counter   // service.checkpoint.bytes
	writeNs    *obs.Histogram // service.checkpoint.write_ns: stage start to durable
	stallNs    *obs.Histogram // service.checkpoint.stall_ns: the round loop's time in a job's hook
}

// slot is one job name's checkpoint bytes: one blob, which every stage
// overwrites in place, so a warm stage marshals into memory the store already
// has, and the verdict of the flush in flight. mu serializes the name's
// stages, waits, loads and deletes; a flush runs without it, reading the
// blob. One blob is enough because a stage waits for the name's flush before
// it writes: nothing rewrites the blob under a running flush, and a second
// blob would only ever hold a checkpoint already on disk.
type slot struct {
	mu      sync.Mutex
	blob    []byte     // the last staged checkpoint; nil = none in memory
	flushed chan error // the in-flight flush's verdict; nil when none is out
}

// wait takes the in-flight flush's verdict, blocking until it is durable or
// failed; nil when no flush is out. The caller holds sl.mu, which is what
// keeps a second caller from starting a flush meanwhile; the flush never
// takes it, and only the name's own next call can queue behind it.
func (sl *slot) wait() error {
	if sl.flushed == nil {
		return nil
	}
	err := <-sl.flushed
	sl.flushed = nil
	return err
}

// NewCheckpointStore creates a store; dir may be "" for memory-only
// operation. The directory is created if missing. reg may be nil.
func NewCheckpointStore(dir string, reg *obs.Registry) (*CheckpointStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("service: checkpoint dir: %w", err)
		}
	}
	return &CheckpointStore{
		slots:      make(map[string]*slot),
		dir:        dir,
		savedBytes: reg.Counter("service.checkpoint.bytes"),
		writeNs:    reg.Histogram("service.checkpoint.write_ns"),
		stallNs:    reg.Histogram("service.checkpoint.stall_ns"),
	}, nil
}

func (s *CheckpointStore) path(name string) string {
	return filepath.Join(s.dir, name+".ckpt")
}

func (s *CheckpointStore) slotFor(name string) *slot {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl := s.slots[name]
	if sl == nil {
		sl = new(slot)
		s.slots[name] = sl
	}
	return sl
}

// Save stores cp as the latest checkpoint for the named job and returns once
// it is durable: stage, flush, wait. The name must already be validated
// (nameOK) — it becomes a filename.
func (s *CheckpointStore) Save(name string, cp *trainer.Checkpoint) error {
	if err := s.saveBehind(name, cp); err != nil {
		return err
	}
	return s.wait(name)
}

// saveBehind stages cp as the named job's latest checkpoint and starts its
// flush without waiting for it. It first waits for the name's previous flush
// and returns that flush's error instead of staging, so a failed write fails
// the job at its next checkpoint. cp is not retained.
func (s *CheckpointStore) saveBehind(name string, cp *trainer.Checkpoint) error {
	if !nameOK(name) {
		return fmt.Errorf("service: bad checkpoint name %q", name)
	}
	t0 := time.Now()
	sl := s.slotFor(name)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if err := sl.wait(); err != nil {
		return err
	}
	sl.blob = cp.AppendMarshal(sl.blob)
	blob := sl.blob
	if s.dir == "" {
		s.saved(len(blob), t0)
		return nil
	}
	flushed := make(chan error, 1)
	sl.flushed = flushed
	go func() { flushed <- s.flush(name, blob, t0) }()
	return nil
}

// flush makes one staged blob durable and records the save.
func (s *CheckpointStore) flush(name string, blob []byte, t0 time.Time) error {
	if err := writeFileAtomic(s.path(name), blob); err != nil {
		return fmt.Errorf("service: save checkpoint %s: %w", name, err)
	}
	s.saved(len(blob), t0)
	return nil
}

// saved records one checkpoint made durable: its bytes, and the time from
// its stage's start.
func (s *CheckpointStore) saved(n int, t0 time.Time) {
	s.savedBytes.Add(int64(n))
	s.writeNs.Since(t0)
}

// wait blocks until the named job's in-flight flush, if any, is durable and
// returns its error.
func (s *CheckpointStore) wait(name string) error {
	sl := s.slotFor(name)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.wait()
}

// Load returns the latest checkpoint for the named job, or (nil, nil) when
// none exists. A present-but-corrupt checkpoint is an error — silently
// restarting from scratch would discard the operator's expectation that
// the job resumes.
func (s *CheckpointStore) Load(name string) (*trainer.Checkpoint, error) {
	if !nameOK(name) {
		return nil, fmt.Errorf("service: bad checkpoint name %q", name)
	}
	// The slot stays locked through the decode: the next stage overwrites
	// the blob read here. A flush may be reading it too; both only read.
	sl := s.slotFor(name)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	blob := sl.blob
	if blob == nil && s.dir != "" {
		data, err := readFileBounded(s.path(name), maxCheckpointFile)
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("service: load checkpoint %s: %w", name, err)
		}
		blob = data
	}
	if blob == nil {
		return nil, nil
	}
	cp, err := trainer.UnmarshalCheckpoint(blob)
	if err != nil {
		return nil, fmt.Errorf("service: checkpoint %s: %w", name, err)
	}
	return cp, nil
}

// Delete drops the named checkpoint (memory and disk), once its in-flight
// flush has landed — otherwise the rename would bring the file back. Used
// when a job completes cleanly — resubmitting a finished job should start
// over, not resume into an instantly-complete run.
func (s *CheckpointStore) Delete(name string) {
	if !nameOK(name) {
		return
	}
	sl := s.slotFor(name)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	_ = sl.wait() // a failed flush is its attempt's to report; only its rename must not outlive the delete
	sl.blob = nil
	if s.dir != "" {
		_ = os.Remove(s.path(name))
	}
}

// writeFileAtomic writes data crash-safely: temp file in the same
// directory, fsync, rename over the target, fsync the directory. Rename is
// atomic on POSIX filesystems, so readers (and a post-crash restart) see the
// old or the new file, never a prefix; the directory fsync makes the rename
// itself survive a power failure.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		// Best-effort cleanup on any failure path; after a successful
		// rename the file no longer exists under tmpName and this is a
		// no-op error.
		_ = os.Remove(tmpName)
	}()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries a rename changed durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// readFileBounded reads a file without ever holding more than limit+1 of
// its bytes: it opens the file once and checks the handle's size — a flush
// may rename a new file over the path at any moment, but not under an open
// handle — then reads through a LimitReader, so the bound holds whatever
// happens to the file after the check. The CRC validates content.
func readFileBounded(path string, limit int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() > limit {
		return nil, fmt.Errorf("checkpoint file is %d bytes, limit %d", fi.Size(), limit)
	}
	// Sized by the stat, with the room ReadFrom wants to see EOF, the read
	// lands in one allocation.
	var buf bytes.Buffer
	buf.Grow(int(fi.Size()) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(f, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, fmt.Errorf("checkpoint file grew past limit %d while read", limit)
	}
	return buf.Bytes(), nil
}
