// The tree gather topology. The star driver links always exist and keep
// carrying broadcasts, end-of-run reports, and control frames; what the tree
// changes is the gather half of each round, where worker gradients are
// merged wire-to-wire (codec.Merger) on their way to the driver so the driver
// decodes O(1) messages instead of O(W).
//
// Workers form a binary tree rooted at the driver (children of the driver
// are workers 0 and 1; worker w's children are 2w+2 and 2w+3). Each interior
// worker merges its children's aggregate frames into its own encoded
// gradient and forwards one frameAgg up.
//
// Every frameAgg carries how many worker gradients its message already
// sums; the driver's one gather (gatherRound) turns the counts into weights
// that keep the applied aggregate the unbiased mean even when subtrees go
// missing in tolerant mode. This file is the workers' half: wiring, and the
// reduction step, which receives through the same recvFrame loop as the
// driver.

package trainer

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
)

// workerLinks is one worker's view of the tree wiring, plus its persistent
// per-round buffers. The zero value is a star worker.
type workerLinks struct {
	w int
	// up is the uplink to the parent worker (nil when the parent is the
	// driver — workers 0 and 1 send aggregates over their driver link);
	// children are the receive ends of the child subtrees' uplinks.
	up       cluster.Conn
	children []cluster.Conn

	// Reusable buffers: the encoded local gradient, the outbound frame and
	// two alternating merge targets (codec.MergeInto may alias its first
	// input, so two suffice for any merge chain).
	encBuf   []byte
	sendBuf  []byte
	mergeBuf [2][]byte
}

func (lk *workerLinks) close() {
	if lk.up != nil {
		_ = lk.up.Close()
	}
	for _, c := range lk.children {
		_ = c.Close()
	}
}

// treeParent returns worker w's parent worker index, or -1 when the parent
// is the driver (w < 2).
func treeParent(w int) int {
	if w < 2 {
		return -1
	}
	return (w - 2) / 2
}

// aggLevel maps a worker to its aggregation level for the per-level merge
// accounting: level 0 holds the driver's direct children, level 1 their
// children, and so on. Returns -1 for star, where no worker merges.
func aggLevel(topo cluster.Topology, w int) int {
	if topo != cluster.TopologyTree {
		return -1
	}
	// Worker w sits at tree depth floor(log2(w+2)) below the driver.
	return int(math.Log2(float64(w+2))) - 1
}

// wireTree adds the worker↔worker uplinks of a tree run to lk: each worker
// w ≥ 2 gets an in-memory pair to its parent, whose receiving end is the
// instrumented one — chaos faults on receive, so drops, corruption and
// outages hit the frames the child sends upward, and the child's configured
// outage lands here rather than on its driver link (see wireLinks). Chaos
// schedules on tree links use seed indexes offset past the worker range
// (Workers+w) so they are distinct from — but exactly as reproducible as —
// the driver links' schedules.
func (lk *links) wireTree(cfg *Config, wrap func(seedIdx int, inner cluster.Conn, outageFor int) *cluster.CountingConn) {
	if cfg.Topology != cluster.TopologyTree {
		return
	}
	for w := range lk.tree {
		lk.tree[w].w = w
	}
	for w := 2; w < cfg.Workers; w++ {
		parent := treeParent(w)
		childEnd, parentEnd := cluster.Pair(4)
		wrapped := wrap(cfg.Workers+w, parentEnd, w)
		lk.tree[w].up = childEnd
		lk.tree[parent].children = append(lk.tree[parent].children, wrapped)
	}
}

// treeGatherStep runs worker w's gather half of one tree round: encode the
// local gradient, wait for each child subtree's aggregate (at most half
// the round deadline — the waits run concurrently, so interior levels do
// not cascade into the driver's full deadline), merge arrivals wire-to-
// wire in child order, and forward one frameAgg to the parent. A missing
// or unusable child frame degrades that subtree's contribution (its count
// simply stays out of the total); only strict mode aborts.
func treeGatherStep(cfg Config, lk *workerLinks, driver cluster.Conn, g *gradient.Sparse, round int, rep *workerReport) error {
	merger := cfg.codec.(codec.Merger)
	t0 := time.Now()
	var err error
	lk.encBuf, err = codec.EncodeAppend(cfg.codec, lk.encBuf[:0], g)
	rep.encodeNs += time.Since(t0).Nanoseconds()
	if err != nil {
		return fmt.Errorf("trainer: worker encode: %w", err)
	}
	cur := lk.encBuf
	count := 1
	if len(lk.children) > 0 {
		recvs := make([]frameRecv, len(lk.children))
		var wg sync.WaitGroup
		wg.Add(len(lk.children))
		for i := range lk.children {
			go func(i int, cfg Config) {
				defer wg.Done()
				// Worker w's children are workers 2w+2 and 2w+3.
				recvs[i] = recvFrame(&cfg, lk.children[i], frameWant{2*lk.w + 2 + i, frameAgg, round}, cfg.RoundDeadline/2, nil)
			}(i, cfg)
		}
		wg.Wait()
		bi := 0
		for i := range recvs {
			r := &recvs[i]
			rep.timeouts += int64(r.timeouts)
			rep.corrupt += int64(r.corrupt)
			rep.aggBytes += r.bytes
			if r.err != nil {
				return r.err
			}
			if r.payload == nil {
				continue
			}
			t0 = time.Now()
			merged, merr := merger.MergeInto(lk.mergeBuf[bi], cur, r.payload)
			rep.mergeNs += time.Since(t0).Nanoseconds()
			if merr != nil {
				if !cfg.tolerant() {
					return fmt.Errorf("trainer: worker %d merge child aggregate: %w", lk.w, merr)
				}
				rep.corrupt++
				continue
			}
			lk.mergeBuf[bi] = merged
			cur = merged
			bi = 1 - bi
			rep.merges++
			count += r.count
		}
	}
	lk.sendBuf = appendAggFrame(lk.sendBuf[:0], round, count, cur)
	if lk.up == nil {
		// Root-level worker: the parent is the driver, reached over the
		// counted driver link. A send failure here is as fatal as a star
		// worker's gradient send — the driver link is the protocol spine.
		if err := driver.Send(lk.sendBuf); err != nil {
			return fmt.Errorf("trainer: worker send: %w", err)
		}
		return nil
	}
	if err := lk.up.Send(lk.sendBuf); err != nil {
		if !cfg.tolerant() {
			return fmt.Errorf("trainer: worker %d send to parent: %w", lk.w, err)
		}
		// Dead uplink: this subtree misses the round. The broadcast on the
		// driver link keeps this worker (and its children) in sync.
	}
	return nil
}
