// The tree gather topology. The star driver links always exist and keep
// carrying broadcasts, end-of-run reports, and control frames; what the tree
// changes is the gather half of each round, where worker gradients are
// merged wire-to-wire (codec.Merger) on their way to the driver so the driver
// decodes O(1) messages instead of O(W).
//
// Workers form a binary tree rooted at the driver (children of the driver
// are workers 0 and 1; worker w's children are 2w+2 and 2w+3). Each interior
// worker merges its children's frames into its own encoded gradient and
// forwards one frameAgg up; a leaf forwards its gradient as a star worker
// does.
//
// Every frameAgg carries how many worker gradients its message already
// sums; the driver's one gather (gatherRound) turns the counts into weights
// that keep the applied aggregate the unbiased mean even when subtrees go
// missing in tolerant mode. This file is the workers' half: wiring, and the
// one gather step every worker runs (a star worker is a tree node with no
// children whose parent is the driver), which receives through the same
// fan-out and recvFrame loop as the driver.

package trainer

import (
	"fmt"
	"math"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/gradient"
)

// workerLinks is one worker's view of the tree wiring, plus its persistent
// per-round buffers. The zero value is a star worker: no children, and the
// driver link as its parent.
type workerLinks struct {
	w int
	// up is the uplink to the parent worker (nil when the parent is the
	// driver — workers 0 and 1 send aggregates over their driver link);
	// children are the receive ends of the child subtrees' uplinks.
	up       cluster.Conn
	children []cluster.Conn

	// Reusable buffers: the outbound frame, which the local gradient is
	// encoded into, the merge target (codec.MergeInto may alias its input,
	// so one serves the whole merge chain), and the child wait's per-link
	// results.
	frame  []byte
	merged []byte
	recvs  []frameRecv
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

// gatherStep runs worker lk.w's gather half of one round on every topology:
// encode the local gradient straight into the outbound frame, merge in each
// child subtree's frame wire-to-wire in child order (a star worker has no
// children; an interior worker waits on its children concurrently for at
// most half the round deadline, so levels do not cascade into the driver's
// full deadline), and send the frame to the parent. The frame is a frameGrad
// while it carries the worker's gradient alone and a frameAgg with its count
// once it sums more. A missing or unusable child frame keeps that subtree's
// count out of the total; only strict mode aborts.
func gatherStep(cfg Config, lk *workerLinks, driver cluster.Conn, g *gradient.Sparse, round int, rep *workerReport) error {
	t0 := time.Now()
	var err error
	lk.frame, err = codec.EncodeAppend(cfg.codec, beginFrame(lk.frame[:0], frameGrad, round), g)
	rep.encodeNs += time.Since(t0).Nanoseconds()
	if err != nil {
		return fmt.Errorf("trainer: worker encode: %w", err)
	}
	msg, count := lk.frame[frameHeaderLen:], 1
	// Worker w's children are workers 2w+2 and 2w+3. Each payload is its
	// child link's message, valid until that link's next receive, which
	// comes only in the next round: the merges below read it in time.
	lk.recvs = recvEach(cfg, lk.children, 2*lk.w+2, round, cfg.RoundDeadline/2, nil, lk.recvs)
	for _, r := range lk.recvs {
		rep.timeouts += int64(r.timeouts)
		rep.corrupt += int64(r.corrupt)
		rep.aggBytes += r.bytes
		if r.err != nil && !cfg.tolerant() {
			return r.err
		}
		if r.payload == nil {
			continue
		}
		t0 = time.Now()
		merged, err := cfg.codec.(codec.Merger).MergeInto(lk.merged, msg, r.payload)
		rep.mergeNs += time.Since(t0).Nanoseconds()
		if err != nil {
			if !cfg.tolerant() {
				return fmt.Errorf("trainer: worker %d merge child aggregate: %w", lk.w, err)
			}
			rep.corrupt++
			continue
		}
		lk.merged, msg = merged, merged
		rep.merges++
		count += r.count
	}
	if count > 1 {
		lk.frame = appendAggFrame(lk.frame[:0], round, count, msg)
	} else {
		sealFrame(lk.frame)
	}
	if lk.up != nil {
		// A dead uplink in tolerant mode costs this subtree the round; the
		// broadcast on the driver link keeps the subtree in sync.
		if err := lk.up.Send(lk.frame); err != nil && !cfg.tolerant() {
			return fmt.Errorf("trainer: worker %d send to parent: %w", lk.w, err)
		}
		return nil
	}
	// The parent is the driver: a failed send is fatal, the driver link
	// being the protocol spine.
	if err := driver.Send(lk.frame); err != nil {
		return fmt.Errorf("trainer: worker send: %w", err)
	}
	return nil
}
