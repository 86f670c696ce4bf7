// Hierarchical gather topologies. The star driver links always exist and
// keep carrying broadcasts, end-of-run reports, and control frames; what a
// non-star topology changes is the gather half of each round, where worker
// gradients are merged wire-to-wire (codec.Merger) on their way to the
// driver so the driver decodes O(1) or O(chunk) messages instead of O(W).
//
//   - Tree: workers form a binary tree rooted at the driver (children of
//     the driver are workers 0 and 1; worker w's children are 2w+2 and
//     2w+3). Each interior worker merges its children's aggregate frames
//     into its own encoded gradient and forwards one frameAgg up.
//   - Ring: the key space splits into W equal ranges. Each worker encodes
//     its gradient as W chunk messages and the ring runs the classic
//     reduce-scatter: at step s worker w forwards chunk (w-s) mod W to its
//     successor and merges the incoming chunk (w-s-1) mod W. After W-1
//     steps worker w owns the fully reduced chunk (w+1) mod W and sends
//     just that to the driver.
//
// Every frameAgg carries how many worker gradients its message already
// sums; the driver's one gather (gatherRound) turns the counts into weights
// that keep the applied aggregate the unbiased mean even when subtrees or
// chunks go missing in tolerant mode. This file is the workers' half:
// wiring, and the two reduction algorithms, which receive through the same
// recvFrame loop as the driver.

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

// workerLinks is one worker's view of the aggregation wiring, plus its
// persistent per-round buffers. The zero value is a star worker.
type workerLinks struct {
	topo    cluster.Topology
	w       int
	workers int
	// Tree: up is the uplink to the parent worker (nil when the parent is
	// the driver — workers 0 and 1 send aggregates over their driver
	// link); children are the receive ends of the child subtrees' uplinks.
	up       cluster.Conn
	children []cluster.Conn
	// Ring: receive from predecessor, send to successor, and the chunk
	// bounds every party derives identically (len workers+1 over [0,dim]).
	ringIn  cluster.Conn
	ringOut cluster.Conn
	bounds  []uint64

	// Reusable buffers: the outbound frame, two alternating merge targets
	// (codec.MergeInto may alias its first input, so two suffice for any
	// merge chain), and the ring's per-chunk messages and gradient counts.
	sendBuf    []byte
	mergeBuf   [2][]byte
	chunkMsg   [][]byte
	chunkCount []int
}

func (lk *workerLinks) close() {
	if lk.up != nil {
		_ = lk.up.Close()
	}
	for _, c := range lk.children {
		_ = c.Close()
	}
	if lk.ringIn != nil {
		_ = lk.ringIn.Close()
	}
	if lk.ringOut != nil {
		_ = lk.ringOut.Close()
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
// children, and so on (ring runs are flat — every worker is level 0).
// Returns -1 for star, where no worker merges.
func aggLevel(topo cluster.Topology, w int) int {
	switch topo {
	case cluster.TopologyTree:
		// Worker w sits at tree depth floor(log2(w+2)) below the driver.
		return int(math.Log2(float64(w+2))) - 1
	case cluster.TopologyRing:
		return 0
	}
	return -1
}

// buildAggLinks wires the worker↔worker aggregation links for the
// configured topology and returns each worker's link view plus every
// connection end the driver must close on teardown. Star returns zeroed
// links and no connections. Chaos schedules on aggregation links use seed
// indexes offset past the worker range (Workers+idx) so they are distinct
// from — but exactly as reproducible as — the driver links' schedules.
func buildAggLinks(cfg *Config, wrap func(seedIdx int, inner cluster.Conn, outageFor int) *cluster.CountingConn, dim uint64) ([]workerLinks, []cluster.Conn) {
	links := make([]workerLinks, cfg.Workers)
	for w := range links {
		links[w].topo = cfg.Topology
		links[w].w = w
		links[w].workers = cfg.Workers
	}
	var aux []cluster.Conn
	switch cfg.Topology {
	case cluster.TopologyTree:
		for w := 2; w < cfg.Workers; w++ {
			parent := treeParent(w)
			childEnd, parentEnd := cluster.Pair(4)
			// The parent-side end is the instrumented one: chaos faults on
			// receive, so drops/corruption/outages hit the frames the child
			// sends upward. The child's configured outage lands here (not on
			// its driver link) — see outageOnDriverLink in RunContext.
			wrapped := wrap(cfg.Workers+w, parentEnd, w)
			links[w].up = childEnd
			links[parent].children = append(links[parent].children, wrapped)
			aux = append(aux, childEnd, wrapped)
		}
	case cluster.TopologyRing:
		if cfg.Workers > 1 {
			for e := 0; e < cfg.Workers; e++ {
				// Edge e: worker e → worker (e+1)%W. The buffer holds two
				// full rounds of chunk frames so a straggler's unconsumed
				// backlog can never block the ring into a send cycle.
				outEnd, inEnd := cluster.Pair(2 * cfg.Workers)
				wrapped := wrap(cfg.Workers+e, inEnd, -1)
				links[e].ringOut = outEnd
				links[(e+1)%cfg.Workers].ringIn = wrapped
				aux = append(aux, outEnd, wrapped)
			}
		}
		bounds := uniformBounds(dim, cfg.Workers)
		for w := range links {
			links[w].bounds = bounds
			links[w].chunkMsg = make([][]byte, cfg.Workers)
			links[w].chunkCount = make([]int, cfg.Workers)
		}
	}
	return links, aux
}

// treeGatherStep runs worker w's gather half of one tree round: encode the
// local gradient, wait for each child subtree's aggregate (at most half
// the round deadline — the waits run concurrently, so interior levels do
// not cascade into the driver's full deadline), merge arrivals wire-to-
// wire in child order, and forward one frameAgg to the parent. A missing
// or unusable child frame degrades that subtree's contribution (its count
// simply stays out of the total); only strict mode aborts.
func treeGatherStep(cfg Config, lk *workerLinks, driver cluster.Conn, g *gradient.Sparse, round int, rep *workerReport) error {
	merger := cfg.Codec.(codec.Merger)
	t0 := time.Now()
	msg, err := cfg.Codec.Encode(g)
	rep.encodeNs += time.Since(t0).Nanoseconds()
	if err != nil {
		return fmt.Errorf("trainer: worker encode: %w", err)
	}
	cur := msg
	count := 1
	if len(lk.children) > 0 {
		recvs := make([]frameRecv, len(lk.children))
		var wg sync.WaitGroup
		wg.Add(len(lk.children))
		for i := range lk.children {
			go func(i int, cfg Config) {
				defer wg.Done()
				// Worker w's children are workers 2w+2 and 2w+3.
				recvs[i] = recvFrame(&cfg, lk.children[i], frameWant{2*lk.w + 2 + i, frameAgg, round, 0}, cfg.RoundDeadline/2, nil)
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
	lk.sendBuf = appendAggFrame(lk.sendBuf[:0], round, count, 0, cur)
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

// ringReduceStep runs worker w's reduce-scatter half of one ring round.
// Each of the W-1 steps gets an equal slice of the round deadline; a step
// whose frame misses it leaves that chunk with only the local (partial)
// sum — the count in the frame keeps the driver's weighting unbiased.
func ringReduceStep(cfg Config, lk *workerLinks, driver cluster.Conn, g *gradient.Sparse, round int, rep *workerReport) error {
	w, workers := lk.w, lk.workers
	merger := cfg.Codec.(codec.Merger)
	chunks := splitByRange(g, lk.bounds)
	t0 := time.Now()
	for i := 0; i < workers; i++ {
		msg, err := cfg.Codec.Encode(chunks[i])
		if err != nil {
			rep.encodeNs += time.Since(t0).Nanoseconds()
			return fmt.Errorf("trainer: worker encode chunk %d: %w", i, err)
		}
		lk.chunkMsg[i] = msg
		lk.chunkCount[i] = 1
	}
	rep.encodeNs += time.Since(t0).Nanoseconds()

	stepBudget := cfg.RoundDeadline / time.Duration(workers)
	for s := 0; s < workers-1; s++ {
		sendIdx := ((w-s)%workers + workers) % workers
		lk.sendBuf = appendAggFrame(lk.sendBuf[:0], round, lk.chunkCount[sendIdx], sendIdx, lk.chunkMsg[sendIdx])
		if err := lk.ringOut.Send(lk.sendBuf); err != nil {
			if !cfg.tolerant() {
				return fmt.Errorf("trainer: worker %d ring send: %w", w, err)
			}
			// Dead out-edge: the successor times out and keeps its local
			// copy; this worker keeps reducing what still reaches it.
		}
		expect := ((w-s-1)%workers + workers) % workers
		r := recvFrame(&cfg, lk.ringIn, frameWant{(w + workers - 1) % workers, frameAgg, round, expect}, stepBudget, nil)
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
		merged, merr := merger.MergeInto(lk.mergeBuf[0], lk.chunkMsg[expect], r.payload)
		rep.mergeNs += time.Since(t0).Nanoseconds()
		if merr != nil {
			if !cfg.tolerant() {
				return fmt.Errorf("trainer: worker %d merge ring chunk %d: %w", w, expect, merr)
			}
			rep.corrupt++
			continue
		}
		// The outgrown chunk buffer becomes the next round's merge target.
		lk.chunkMsg[expect], lk.mergeBuf[0] = merged, lk.chunkMsg[expect][:0]
		rep.merges++
		lk.chunkCount[expect] += r.count
	}

	finalIdx := (w + 1) % workers
	lk.sendBuf = appendAggFrame(lk.sendBuf[:0], round, lk.chunkCount[finalIdx], finalIdx, lk.chunkMsg[finalIdx])
	if err := driver.Send(lk.sendBuf); err != nil {
		return fmt.Errorf("trainer: worker send: %w", err)
	}
	return nil
}
