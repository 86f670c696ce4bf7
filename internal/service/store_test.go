package service

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"sketchml/internal/obs"
	"sketchml/internal/optim"
	"sketchml/internal/trainer"
)

func storeCheckpoint(dim int) *trainer.Checkpoint {
	theta := make([]float64, dim)
	for i := range theta {
		theta[i] = float64(i) / 7
	}
	return &trainer.Checkpoint{
		Rounds: 10, RoundsPerEpoch: 10, Workers: 4, Seed: 1,
		CodecName: "SketchML", ModelName: "LR", Theta: theta,
	}
}

// TestStoreStageWarmAllocs is the store's half of the checkpoint boundary's
// allocation contract (DESIGN.md "Allocation contract"; the driver's half is
// trainer's TestCheckpointWarmAllocs): a name holds one blob, so its first two
// stages allocate one blob between them, and once it is sized a stage — Adam's
// state marshaled into its own buffer, the checkpoint into the blob, the
// instruments — allocates nothing.
func TestStoreStageWarmAllocs(t *testing.T) {
	const dim = 100_000
	store, err := NewCheckpointStore("", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	adam := optim.NewAdam(0.1, dim)
	cp := storeCheckpoint(dim)
	cp.OptState = adam.MarshalState()
	stage := func() {
		cp.OptState = adam.MarshalState()
		if err := store.saveBehind("warm", cp); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stage()
	stage()
	runtime.ReadMemStats(&after)
	// Under -race the compiler does not fuse slices.Grow's append of a make,
	// so every growth allocates twice and the byte reading skips.
	grown, blob := after.TotalAlloc-before.TotalAlloc, len(cp.Marshal())
	if !raceEnabled && float64(grown) > 1.1*float64(blob) {
		t.Errorf("a name's first two stages allocate %d B for a %d-byte blob, want one blob", grown, blob)
	}
	if allocs := testing.AllocsPerRun(10, stage); allocs != 0 {
		t.Errorf("warm stage allocates %v objects/op, want 0", allocs)
	}
	back, err := store.Load("warm")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Marshal(), cp.Marshal()) {
		t.Fatal("the staged checkpoint does not load back")
	}
}

// TestStoreOneBlobUnderFlush stages checkpoints back to back on a
// disk-backed store while other goroutines load them, from the store itself
// (its one blob in memory) and from a second store over the same directory
// (the file the flushes rename). Every load passes its CRC and is one of the
// staged rounds, whole: since the one blob is never rewritten under a
// running flush, no file and no load can mix two stages. Under -race, a
// stage that wrote the blob while its flush read it is also a reported race.
func TestStoreOneBlobUnderFlush(t *testing.T) {
	const dim, stages = 20_000, 40
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewCheckpointStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := storeCheckpoint(dim)
	// stageRound makes cp round r's checkpoint: every θ entry names r, so a
	// blob that mixed two stages decodes to a θ that disagrees with Rounds.
	stageRound := func(r int) {
		cp.Rounds = r
		for i := range cp.Theta {
			cp.Theta[i] = float64(r*dim + i)
		}
	}
	check := func(from string, back *trainer.Checkpoint, err error) error {
		switch {
		case err != nil:
			return fmt.Errorf("%s load: %w", from, err)
		case back == nil:
			return nil // nothing on disk yet
		case back.Rounds < 1 || back.Rounds > stages:
			return fmt.Errorf("%s load: round %d was never staged", from, back.Rounds)
		}
		for i, v := range back.Theta {
			if v != float64(back.Rounds*dim+i) {
				return fmt.Errorf("%s load: round %d has θ[%d] = %v, a value of another stage", from, back.Rounds, i, v)
			}
		}
		return nil
	}
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var loaders sync.WaitGroup
	for _, loader := range []struct {
		from  string
		store *CheckpointStore
	}{{"memory", store}, {"disk", cold}} {
		loaders.Add(1)
		go func() {
			defer loaders.Done()
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				back, err := loader.store.Load("busy")
				if err := check(loader.from, back, err); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for r := 1; r <= stages; r++ {
		stageRound(r)
		if err := store.saveBehind("busy", cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.wait("busy"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	loaders.Wait()
	for range 2 {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	back, err := cold.Load("busy")
	if err := check("final disk", back, err); err != nil {
		t.Fatal(err)
	}
	if back == nil || back.Rounds != stages {
		t.Fatal("the file after the last flush is not the last stage")
	}
}

// TestStoreSaveIsDurable pins Save's contract, which callers outside the
// service rely on: when it returns, a fresh store over the same directory
// loads the checkpoint. And a flush left running behind a stage is waited
// for by Delete, so the file it renames cannot outlive the delete.
func TestStoreSaveIsDurable(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cp := storeCheckpoint(1000)
	if err := store.Save("durable", cp); err != nil {
		t.Fatal(err)
	}
	cold, err := NewCheckpointStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := cold.Load("durable")
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || !bytes.Equal(back.Marshal(), cp.Marshal()) {
		t.Fatal("a fresh store does not load what Save returned from")
	}

	if err := store.saveBehind("behind", cp); err != nil {
		t.Fatal(err)
	}
	store.Delete("behind")
	if _, err := os.Stat(store.path("behind")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("checkpoint file after Delete: %v", err)
	}
	if back, err := store.Load("behind"); back != nil || err != nil {
		t.Fatalf("Load after Delete: %v, %v", back, err)
	}
}

// TestReadFileBounded holds the load bound at a 16-byte limit: files up to
// the limit read whole, a longer one is refused, and so is a file whose stat
// understates it (procfs reports size 0), which only the LimitReader can
// catch.
func TestReadFileBounded(t *testing.T) {
	const limit = 16
	dir := t.TempDir()
	for _, n := range []int{0, 16, 17} {
		path := filepath.Join(dir, strconv.Itoa(n))
		if err := os.WriteFile(path, bytes.Repeat([]byte{7}, n), 0o644); err != nil {
			t.Fatal(err)
		}
		data, err := readFileBounded(path, limit)
		switch {
		case n > limit && err == nil:
			t.Errorf("%d-byte file read under a %d-byte limit", n, limit)
		case n <= limit && (err != nil || len(data) != n):
			t.Errorf("%d-byte file: %d bytes, %v", n, len(data), err)
		}
	}
	if _, err := readFileBounded(filepath.Join(dir, "missing"), limit); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v, want fs.ErrNotExist", err)
	}
	const understated = "/proc/self/status"
	if fi, err := os.Stat(understated); err != nil || fi.Size() != 0 {
		t.Skipf("no procfs file whose stat reads 0 (%v)", err)
	}
	if data, err := readFileBounded(understated, limit); err == nil {
		t.Errorf("%s read %d bytes under a %d-byte limit", understated, len(data), limit)
	}
}
