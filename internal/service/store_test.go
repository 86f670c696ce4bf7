package service

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
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
// trainer's TestCheckpointWarmAllocs): once a name's two blobs are sized, a
// stage — Adam's state marshaled into its own buffer, the checkpoint into the
// spare, the swap, the instruments — allocates nothing.
func TestStoreStageWarmAllocs(t *testing.T) {
	const dim = 100_000
	store, err := NewCheckpointStore("", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	adam := optim.NewAdam(0.1, dim)
	cp := storeCheckpoint(dim)
	stage := func() {
		cp.OptState = adam.MarshalState()
		if err := store.saveBehind("warm", cp); err != nil {
			t.Fatal(err)
		}
	}
	stage()
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
