package trainer

import (
	"math"
	"strings"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
)

// The degradation matrix drives the one gatherRound over every topology
// through the same fault rows. Each link is loaded with the frame a clean
// round of W workers holding the same gradient g would put on it — a star
// gradient, a tree root's merged subtree (count·g) — so on every topology
// the aggregate of a clean round is g, and so is the aggregate of a degraded
// round: the unbiased mean survives the loss. Faults land on links 0 and 1,
// which every topology listens on; at W = 4 link 1 carries exactly one
// gradient's worth under each of them (worker 1, the leaf root {1}), so the
// expected counters are the same in every column.

const matrixRound = 5

type matrixHarness struct {
	cfg        Config
	g          *gradient.Sparse
	driverSide []*cluster.CountingConn
	workerSide []cluster.Conn
}

func newMatrixHarness(t *testing.T, topo cluster.Topology, workers int) *matrixHarness {
	t.Helper()
	h := &matrixHarness{
		cfg: Config{
			codec: &codec.Raw{}, Workers: workers, Topology: topo,
			RoundDeadline: 60 * time.Millisecond, minGatherFraction: 0.5, maxStrikes: 3,
		},
		g: &gradient.Sparse{Dim: gatherDim},
	}
	for k := uint64(7); k < gatherDim; k += 97 {
		h.g.Keys = append(h.g.Keys, k)
		h.g.Values = append(h.g.Values, 0.001*float64(k)-2)
	}
	for w := 0; w < workers; w++ {
		a, b := cluster.Pair(4)
		h.driverSide = append(h.driverSide, cluster.NewCounting(a))
		h.workerSide = append(h.workerSide, b)
	}
	return h
}

// links is how many driver links the topology's gather listens on.
func (h *matrixHarness) links() int {
	if h.cfg.Topology == cluster.TopologyTree {
		return min(h.cfg.Workers, 2)
	}
	return h.cfg.Workers
}

// subtree counts the workers in the binary gather tree under worker w.
func subtree(w, workers int) int {
	if w >= workers {
		return 0
	}
	return 1 + subtree(2*w+2, workers) + subtree(2*w+3, workers)
}

// frame is what link w carries for the round in a clean run; undecodable
// swaps the codec message for bytes no codec accepts, leaving the envelope
// (checksum, round, count) valid.
func (h *matrixHarness) frame(t *testing.T, w, round int, undecodable bool) []byte {
	t.Helper()
	count := 1
	if h.cfg.Topology == cluster.TopologyTree {
		count = subtree(w, h.cfg.Workers)
	}
	scaled := &gradient.Sparse{Dim: h.g.Dim, Keys: h.g.Keys}
	for _, v := range h.g.Values {
		scaled.Values = append(scaled.Values, v*float64(count))
	}
	msg, err := h.cfg.codec.Encode(scaled)
	if err != nil {
		t.Fatal(err)
	}
	if undecodable {
		msg = []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02}
	}
	if h.cfg.Topology == cluster.TopologyStar {
		return appendFrame(nil, frameGrad, round, msg)
	}
	return appendAggFrame(nil, round, count, msg)
}

type matrixRow struct {
	name    string
	workers int
	frac    float64 // minGatherFraction; 0 keeps the harness's 0.5
	// Faults: ahead queues frames on link 0 in front of its good one; silent
	// and dead name the link that sends nothing or whose pair is closed
	// (negative: none).
	ahead        func(t *testing.T, h *matrixHarness) [][]byte
	silent, dead int
	strikesIn    int // link 1's consecutive misses going into the round

	wantErr      string // substring of the abort; empty: the round proceeds
	want         soakCounters
	wantStrikes1 int
}

func TestGatherDegradationMatrix(t *testing.T) {
	oneMiss := soakCounters{skipped: 1, strikes: 1, degraded: 1}
	oneTimeout := oneMiss
	oneTimeout.timeouts = 1
	rows := []matrixRow{
		{name: "all arrive", workers: 4, silent: -1, dead: -1},
		{name: "one link silent", workers: 4, silent: 1, dead: -1, want: oneTimeout, wantStrikes1: 1},
		{name: "quorum exactly met", workers: 4, frac: 0.75, silent: 1, dead: -1, want: oneTimeout, wantStrikes1: 1},
		{name: "quorum one short", workers: 4, frac: 1, silent: 1, dead: -1, wantErr: "quorum lost"},
		{name: "strike-out at MaxStrikes", workers: 4, silent: 1, dead: -1, strikesIn: 2, wantErr: "missed 3 consecutive rounds"},
		{name: "strikes reset on arrival", workers: 4, silent: -1, dead: -1, strikesIn: 2},
		{name: "stale and corrupt frames ahead of the good one", workers: 4, silent: -1, dead: -1,
			ahead: func(t *testing.T, h *matrixHarness) [][]byte {
				return [][]byte{h.frame(t, 0, matrixRound-2, false), {0xFF, 0x00}}
			},
			want: soakCounters{stale: 1, corrupt: 1}},
		// The two rows where the forks had drifted from star. A dead link is
		// a miss, not a timeout; an undecodable frame is discarded and the
		// wait goes on, so the good duplicate behind it still counts.
		{name: "dead link", workers: 4, silent: -1, dead: 1, want: oneMiss, wantStrikes1: 1},
		{name: "undecodable frame then a good duplicate", workers: 4, silent: -1, dead: -1,
			ahead: func(t *testing.T, h *matrixHarness) [][]byte {
				return [][]byte{h.frame(t, 0, matrixRound, true)}
			},
			want: soakCounters{corrupt: 1}},
		{name: "single worker", workers: 1, silent: -1, dead: -1},
	}
	for _, topo := range []cluster.Topology{cluster.TopologyStar, cluster.TopologyTree} {
		for _, row := range rows {
			t.Run(topo.String()+"/"+row.name, func(t *testing.T) {
				h := newMatrixHarness(t, topo, row.workers)
				if row.frac > 0 {
					h.cfg.minGatherFraction = row.frac
				}
				for w := 0; w < h.links(); w++ {
					var frames [][]byte
					if w == 0 && row.ahead != nil {
						frames = row.ahead(t, h)
					}
					switch w {
					case row.silent:
						continue
					case row.dead:
						if err := h.workerSide[w].Close(); err != nil {
							t.Fatal(err)
						}
						continue
					}
					for _, f := range append(frames, h.frame(t, w, matrixRound, false)) {
						if err := h.workerSide[w].Send(f); err != nil {
							t.Fatal(err)
						}
					}
				}
				strikes := make([]int, row.workers)
				if row.workers > 1 {
					strikes[1] = row.strikesIn
				}
				acc := gradient.NewAccumulator(gatherDim)
				var es EpochStats
				var decode time.Duration
				err := gatherRound(h.cfg, matrixRound, h.driverSide, strikes, make([]gradient.Sparse, h.links()), nil, acc, &es, &decode)
				if row.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), row.wantErr) {
						t.Fatalf("want an abort containing %q, got %v", row.wantErr, err)
					}
					return
				}
				if err != nil {
					t.Fatalf("round aborted: %v", err)
				}
				if got := soakTally(&Result{Epochs: []EpochStats{es}}); got != row.want {
					t.Errorf("counters %+v, want %+v", got, row.want)
				}
				if row.workers > 1 && strikes[1] != row.wantStrikes1 {
					t.Errorf("link 1 at %d strikes after the round, want %d", strikes[1], row.wantStrikes1)
				}
				// Every surviving message spans the key space, so the mean of
				// what arrived is g whichever link delivered nothing.
				agg := acc.Sum()
				if len(agg.Keys) != len(h.g.Keys) {
					t.Fatalf("aggregate has %d keys, want %d", len(agg.Keys), len(h.g.Keys))
				}
				for i, k := range agg.Keys {
					if k != h.g.Keys[i] || math.Abs(agg.Values[i]-h.g.Values[i]) > 1e-9 {
						t.Fatalf("aggregate[%d] = %v, want g[%d] = %v: not the mean of what arrived", k, agg.Values[i], h.g.Keys[i], h.g.Values[i])
					}
				}
			})
		}
	}
}
