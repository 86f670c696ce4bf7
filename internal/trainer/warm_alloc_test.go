package trainer

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/model"
)

// warmRoundAllocBound is what one warm round of a whole run may allocate,
// all parties together: per-epoch bookkeeping spread over the epoch's rounds
// and the odd buffer that meets a new largest message.
const warmRoundAllocBound = 16 << 10

// TestWarmRoundAllocations is the run-level witness of the allocation
// contract (DESIGN.md): the per-call tests pin each hot path alone, this one
// pins a whole run's rounds, every party's work included. A run of 2R
// rounds reads the process's allocated bytes at the epoch boundary after R
// rounds and at the one after 2R, with the collector off throughout, and
// the difference divided by R is what a warm round allocates: the job's
// fixed state and the first growth of every buffer fall in the first R
// rounds. How many frame buffers the in-memory link and how many pooled
// scratch a run needs depends on how its goroutines interleave, so one of
// them is sometimes made in the second half; the least of three runs reads
// a run where none was. Skipped under -race, whose sync.Pool drops what it
// is handed at random.
func TestWarmRoundAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation readings are meaningless under the race detector")
	}
	d, err := dataset.Generate(dataset.SyntheticConfig{
		N: 20_000, Dim: 200_000, AvgNNZ: 40, ZipfS: 1.05,
		BinaryVals: true, NoiseStd: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.Split(0.9, 1)
	for _, tc := range []struct {
		name  string
		codec func() codec.Codec
		topo  cluster.Topology
		tcp   bool
	}{
		{"SketchML/mem-star", sketchMLFactory, cluster.TopologyStar, false},
		{"SketchML/mem-tree", sketchMLFactory, cluster.TopologyTree, false},
		{"SketchML/tcp-star", sketchMLFactory, cluster.TopologyStar, true},
		{"Raw/mem-star", rawFactory, cluster.TopologyStar, false},
		{"Raw/mem-tree", rawFactory, cluster.TopologyTree, false},
		{"Raw/tcp-star", rawFactory, cluster.TopologyStar, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runtime.GC() // the previous case's garbage, before the collector goes off
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			// perRound trains 2R rounds (four epochs of ten) and returns the
			// bytes a round of the second half allocated.
			perRound := func() float64 {
				var bytes []uint64
				var rounds []int
				_, err := Run(Config{
					Trainable:     model.Wrap(model.LogisticRegression{}),
					CodecFactory:  tc.codec,
					Optimizer:     adamFactory(0.1),
					Workers:       4,
					Topology:      tc.topo,
					BatchFraction: 0.1,
					Epochs:        4,
					Lambda:        0.01,
					Seed:          3,
					UseTCP:        tc.tcp,
					OnCheckpoint: func(cp *Checkpoint) error { // every epoch boundary
						var m runtime.MemStats
						runtime.ReadMemStats(&m)
						bytes, rounds = append(bytes, m.TotalAlloc), append(rounds, cp.Rounds)
						return nil
					},
				}, train, test)
				if err != nil {
					t.Fatal(err)
				}
				if len(bytes) != 4 {
					t.Fatalf("%d epoch boundaries, want 4", len(bytes))
				}
				return float64(bytes[3]-bytes[1]) / float64(rounds[3]-rounds[1])
			}
			least := math.Inf(1)
			for i := 0; i < 3; i++ {
				least = math.Min(least, perRound())
			}
			t.Logf("%.0f B a warm round", least)
			if least > warmRoundAllocBound {
				t.Errorf("a warm round allocates %.0f B, want at most %d", least, warmRoundAllocBound)
			}
		})
	}
}

func sketchMLFactory() codec.Codec { return codec.MustSketchML(codec.DefaultOptions()) }

func rawFactory() codec.Codec { return &codec.Raw{} }
