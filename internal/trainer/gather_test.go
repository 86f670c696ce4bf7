package trainer

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
)

// These tests drive gatherRound — the driver-side fan-in that receives and
// decodes one message per worker on W goroutines — through its failure
// paths under -race: one worker delivering garbage (decode fails mid-
// gather) and one worker's connection dying (recv fails) while the other
// workers' decodes are still in flight. The gather must return a clean,
// attributed error without deadlocking on its WaitGroup or racing on the
// shared result slots. Part of the race-matrix sweep (make race-matrix).

const gatherDim = 4096

func gatherHarness(t *testing.T, workers int) (Config, []*cluster.CountingConn, []cluster.Conn, *gradient.Sparse, []byte) {
	t.Helper()
	c := codec.MustSketchML(codec.DefaultOptions())
	cfg := Config{codec: c, Workers: workers}
	rng := rand.New(rand.NewSource(77))
	m := map[uint64]float64{}
	for len(m) < 120 {
		m[uint64(rng.Int63n(gatherDim))] = rng.NormFloat64() * 0.01
	}
	g := gradient.FromMap(gatherDim, m)
	msg, err := c.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	driverSide := make([]*cluster.CountingConn, workers)
	workerSide := make([]cluster.Conn, workers)
	for w := 0; w < workers; w++ {
		a, b := cluster.Pair(1)
		driverSide[w] = cluster.NewCounting(a)
		workerSide[w] = b
	}
	return cfg, driverSide, workerSide, g, msg
}

func TestGatherRoundDecodeFailureMidGather(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	for w := 0; w < workers; w++ {
		payload := msg
		if w == 2 {
			payload = []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02}
		}
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, payload)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	var decode time.Duration
	err := gatherRound(cfg, 0, driverSide, make([]int, workers), make([]gradient.Sparse, workers), nil, acc, &EpochStats{}, &decode)
	if err == nil {
		t.Fatal("gatherRound accepted a garbage message")
	}
	if !strings.Contains(err.Error(), "decode from worker 2") {
		t.Fatalf("error not attributed to the failing worker: %v", err)
	}
}

func TestGatherRoundRecvFailureMidGather(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	for w := 0; w < workers; w++ {
		if w == 1 {
			// This worker dies before sending anything: its pair closes and
			// the driver's Recv must fail while the other three decodes run.
			if err := workerSide[w].Close(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	var decode time.Duration
	err := gatherRound(cfg, 0, driverSide, make([]int, workers), make([]gradient.Sparse, workers), nil, acc, &EpochStats{}, &decode)
	if err == nil {
		t.Fatal("gatherRound succeeded with a dead worker connection")
	}
	if !strings.Contains(err.Error(), "recv from worker 1") {
		t.Fatalf("error not attributed to the dead worker: %v", err)
	}
}

// TestGatherRoundAllHealthy pins the happy path the failure tests bracket:
// the same harness with every worker delivering a valid message must
// accumulate the mean gradient and report a nonzero decode duration.
func TestGatherRoundAllHealthy(t *testing.T) {
	const workers = 4
	cfg, driverSide, workerSide, _, msg := gatherHarness(t, workers)
	for w := 0; w < workers; w++ {
		if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, msg)); err != nil {
			t.Fatal(err)
		}
	}
	acc := gradient.NewAccumulator(gatherDim)
	var decode time.Duration
	if err := gatherRound(cfg, 0, driverSide, make([]int, workers), make([]gradient.Sparse, workers), nil, acc, &EpochStats{}, &decode); err != nil {
		t.Fatal(err)
	}
	if decode <= 0 {
		t.Fatal("decode duration was not accumulated")
	}
}

// TestGatherRoundRejectsWrongDim: a worker gradient that decodes cleanly but
// over another dimension never reaches the sum. One worker's message is
// encoded over twice the model's dimension, with keys past the model's end,
// or over half of it; in strict and in tolerant mode gatherRound must return
// an error that names the dimensions, and must not panic.
func TestGatherRoundRejectsWrongDim(t *testing.T) {
	const workers = 4
	for _, mode := range []struct {
		name     string
		deadline time.Duration
	}{{"strict", 0}, {"tolerant", 5 * time.Second}} {
		for _, dim := range []uint64{2 * gatherDim, gatherDim / 2} {
			t.Run(fmt.Sprintf("%s/dim%d", mode.name, dim), func(t *testing.T) {
				cfg, driverSide, workerSide, g, msg := gatherHarness(t, workers)
				cfg.RoundDeadline, cfg.minGatherFraction, cfg.maxStrikes = mode.deadline, 0.5, 3
				// Stretch the keys over the whole wrong dimension, so the
				// larger one puts about half of them past the model's end.
				m := map[uint64]float64{}
				for i, k := range g.Keys {
					m[k*dim/gatherDim] += g.Values[i]
				}
				bad, err := cfg.codec.Encode(gradient.FromMap(dim, m))
				if err != nil {
					t.Fatal(err)
				}
				for w := 0; w < workers; w++ {
					payload := msg
					if w == 2 {
						payload = bad
					}
					if err := workerSide[w].Send(appendFrame(nil, frameGrad, 0, payload)); err != nil {
						t.Fatal(err)
					}
				}
				acc := gradient.NewAccumulator(gatherDim)
				var decode time.Duration
				err = gatherRound(cfg, 0, driverSide, make([]int, workers), make([]gradient.Sparse, workers), nil, acc, &EpochStats{}, &decode)
				if err == nil {
					t.Fatalf("gatherRound summed a gradient over %d dimensions into a model of %d", dim, gatherDim)
				}
				if !strings.Contains(err.Error(), fmt.Sprint(dim)) {
					t.Fatalf("error does not name the gradient's dimension %d: %v", dim, err)
				}
			})
		}
	}
}
