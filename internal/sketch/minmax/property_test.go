package minmax

import (
	"math/rand"
	"testing"

	"sketchml/internal/quantizer"
)

// TestQueryNeverAmplifies is the MinMaxSketch one-sided-error property on
// the raw structure: for every inserted (key, idx), Query must return ok
// with a result in [0, idx] — min-on-insert can only decay a stored index,
// max-on-query picks the least-decayed row (Theorem A.4). Heavy collision
// pressure (far more keys than bins) makes the bound do real work.
func TestQueryNeverAmplifies(t *testing.T) {
	for _, cfg := range []struct{ rows, cols, keys int }{
		{1, 64, 1000},  // brutal: one row, 16x overload
		{2, 256, 2000}, // the paper's default shape
		{4, 128, 4000},
	} {
		rng := rand.New(rand.NewSource(int64(cfg.rows*10000 + cfg.cols)))
		s := New(cfg.rows, cfg.cols, 99)
		inserted := map[uint64]uint16{}
		for len(inserted) < cfg.keys {
			k := rng.Uint64()
			idx := uint16(rng.Intn(256))
			if old, ok := inserted[k]; !ok || idx < old {
				inserted[k] = idx // the sketch keeps the min per key too
			}
			s.Insert(k, idx)
		}
		for k, idx := range inserted {
			got, ok := s.Query(k)
			if !ok {
				t.Fatalf("rows=%d cols=%d: inserted key %d not found", cfg.rows, cfg.cols, k)
			}
			if got > idx {
				t.Fatalf("rows=%d cols=%d: key %d recovered index %d > inserted %d (amplified)",
					cfg.rows, cfg.cols, k, got, idx)
			}
		}
	}
}

// TestGroupedRecoveryWithinGroup pins the grouped bound of Section 3.3: a
// recovered bucket stays inside the inserted bucket's group, at or below
// the inserted bucket — so the worst-case index error is q/r, never q.
func TestGroupedRecoveryWithinGroup(t *testing.T) {
	const q, r = 256, 8
	rng := rand.New(rand.NewSource(17))
	g := NewGrouped(2, 400, q, r, 5)
	type ins struct {
		key    uint64
		bucket int
	}
	var all []ins
	for i := 0; i < 2000; i++ {
		in := ins{key: rng.Uint64(), bucket: rng.Intn(q)}
		g.Insert(in.key, in.bucket)
		all = append(all, in)
	}
	for _, in := range all {
		grp := g.GroupOf(in.bucket)
		got, ok := g.Query(grp, in.key)
		if !ok {
			t.Fatalf("key %d lost", in.key)
		}
		lo := grp * g.BucketsPerGroup()
		if got < lo || got > in.bucket {
			t.Fatalf("key %d: recovered bucket %d outside [%d, %d] (group %d)",
				in.key, got, lo, in.bucket, grp)
		}
		if err := in.bucket - got; err >= g.BucketsPerGroup() {
			t.Fatalf("key %d: index error %d >= group width %d", in.key, err, g.BucketsPerGroup())
		}
	}
}

// TestRecoveredValuesWithinBucketAndSign replays the codec's full pane
// pipeline — quantile buckets over magnitudes, a grouped MinMaxSketch per
// sign pane — and checks the end-to-end value contract: every recovered
// value keeps its sign, lies inside its recovered bucket's [lo, hi] value
// range, and never exceeds the magnitude of the exact value's own bucket
// ceiling (decay-only, the property that keeps SGD convergent).
func TestRecoveredValuesWithinBucketAndSign(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(23))
	type entry struct {
		key uint64
		val float64 // signed original
		mag float64
	}
	panes := map[string][]entry{"pos": nil, "neg": nil}
	for i := 0; i < n; i++ {
		mag := rng.ExpFloat64() * 0.02
		if mag == 0 {
			continue
		}
		e := entry{key: rng.Uint64(), mag: mag}
		if rng.Intn(2) == 0 {
			e.val = mag
			panes["pos"] = append(panes["pos"], e)
		} else {
			e.val = -mag
			panes["neg"] = append(panes["neg"], e)
		}
	}
	for name, pane := range panes {
		t.Run(name, func(t *testing.T) {
			mags := make([]float64, len(pane))
			for i, e := range pane {
				mags[i] = e.mag
			}
			z, err := quantizer.BuildQuantile(mags, 64, 128)
			if err != nil {
				t.Fatal(err)
			}
			splits, means := z.Splits(), z.Means()
			g := NewGrouped(2, len(pane)/5, z.NumBuckets(), 8, 7)
			for _, e := range pane {
				g.Insert(e.key, z.Bucket(e.mag))
			}
			for _, e := range pane {
				exact := z.Bucket(e.mag)
				got, ok := g.Query(g.GroupOf(exact), e.key)
				if !ok {
					t.Fatalf("key %d lost", e.key)
				}
				rec := means[got]
				if name == "neg" {
					rec = -rec
				}
				// Sign pane separation: the recovered value may decay
				// toward zero but its direction is fixed.
				if rec*e.val < 0 {
					t.Fatalf("key %d: sign flipped, %g -> %g", e.key, e.val, rec)
				}
				// The recovered magnitude is the recovered bucket's mean,
				// which must sit inside that bucket's [lo, hi] split range.
				if m := means[got]; m < splits[got] || m > splits[got+1] {
					t.Fatalf("bucket %d mean %g outside [%g, %g]", got, m, splits[got], splits[got+1])
				}
				// Decay-only: recovered bucket <= exact bucket, and means
				// are monotone over magnitude buckets, so the recovered
				// magnitude never exceeds the exact bucket's ceiling.
				if got > exact {
					t.Fatalf("key %d: recovered bucket %d > exact %d", e.key, got, exact)
				}
				if means[got] > splits[exact+1] {
					t.Fatalf("key %d: recovered magnitude %g above exact bucket ceiling %g",
						e.key, means[got], splits[exact+1])
				}
			}
		})
	}
}
