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
// sums; the driver weights each decoded message by 1/total so the applied
// aggregate stays the unbiased mean even when subtrees or chunks go
// missing in tolerant mode.

package trainer

import (
	"errors"
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

// ringBounds splits [0, dim] into workers+1 equal-range boundaries. Every
// party derives the same bounds from dim alone, so no coordination round
// is needed.
func ringBounds(dim uint64, workers int) []uint64 {
	bounds := make([]uint64, workers+1)
	for i := 0; i <= workers; i++ {
		bounds[i] = uint64(float64(i) / float64(workers) * float64(dim))
	}
	bounds[workers] = dim
	return bounds
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
		bounds := ringBounds(dim, cfg.Workers)
		for w := range links {
			links[w].bounds = bounds
			links[w].chunkMsg = make([][]byte, cfg.Workers)
			links[w].chunkCount = make([]int, cfg.Workers)
		}
	}
	return links, aux
}

// aggRecv is the outcome of one aggregate-frame receive on an aggregation
// or driver link.
type aggRecv struct {
	count    int    // worker gradients summed into payload (0 on a miss)
	payload  []byte // codec message; aliases the transport buffer, nil on a miss
	bytes    int64  // raw frame bytes received, including discarded frames
	timeouts int
	corrupt  int
	stale    int
	err      error // fatal in strict mode; tolerant mode never sets it
}

// recvAggFrame receives one frameAgg for the given round and chunk. In
// strict mode (no deadline) it blocks until a frame arrives and any
// anomaly is an error. In tolerant mode it spends at most budget: stale
// and corrupt frames are counted, discarded, and the wait continues on the
// remaining time; expiry or a dead link is a miss, never an abort —
// aggregation links are best-effort, the star control links keep every
// party in the protocol.
func recvAggFrame(cfg Config, conn cluster.Conn, round, expectChunk int, budget time.Duration) aggRecv {
	var out aggRecv
	var deadline time.Time
	if cfg.tolerant() {
		deadline = time.Now().Add(budget)
	}
	for {
		var wait time.Duration
		if cfg.tolerant() {
			wait = time.Until(deadline)
			if wait <= 0 {
				out.timeouts++
				return out
			}
		}
		msg, err := cluster.RecvWithTimeout(conn, wait)
		if errors.Is(err, cluster.ErrTimeout) {
			out.timeouts++
			return out
		}
		if err != nil {
			if cfg.tolerant() {
				out.timeouts++
				return out
			}
			out.err = err
			return out
		}
		out.bytes += int64(len(msg))
		kind, tag, payload, err := parseFrame(msg)
		if err != nil {
			if !cfg.tolerant() {
				out.err = err
				return out
			}
			out.corrupt++
			continue
		}
		if kind != frameAgg || tag != round {
			if !cfg.tolerant() {
				out.err = fmt.Errorf("unexpected kind 0x%02x round %d during round %d", kind, tag, round)
				return out
			}
			out.stale++
			continue
		}
		count, chunk, body, err := parseAggFrame(payload)
		if err != nil {
			if !cfg.tolerant() {
				out.err = err
				return out
			}
			out.corrupt++
			continue
		}
		if chunk != expectChunk {
			if !cfg.tolerant() {
				out.err = fmt.Errorf("aggregate for chunk %d during chunk %d of round %d", chunk, expectChunk, round)
				return out
			}
			out.stale++
			continue
		}
		out.count = count
		out.payload = body
		return out
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
		recvs := make([]aggRecv, len(lk.children))
		var wg sync.WaitGroup
		wg.Add(len(lk.children))
		for i := range lk.children {
			go func(i int, cfg Config) {
				defer wg.Done()
				recvs[i] = recvAggFrame(cfg, lk.children[i], round, 0, cfg.RoundDeadline/2)
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
				return fmt.Errorf("trainer: worker %d recv from child: %w", lk.w, r.err)
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
		r := recvAggFrame(cfg, lk.ringIn, round, expect, stepBudget)
		rep.timeouts += int64(r.timeouts)
		rep.corrupt += int64(r.corrupt)
		rep.aggBytes += r.bytes
		if r.err != nil {
			return fmt.Errorf("trainer: worker %d ring recv: %w", w, r.err)
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

// gatherAgg receives and decodes one aggregate message from a driver link.
func gatherAgg(cfg Config, conn cluster.Conn, w, round, expectChunk int, dst *gradient.Sparse) gatherOutcome {
	ar := recvAggFrame(cfg, conn, round, expectChunk, cfg.RoundDeadline)
	var out gatherOutcome
	out.timeouts, out.corrupt, out.stale = ar.timeouts, ar.corrupt, ar.stale
	if ar.err != nil {
		out.err = fmt.Errorf("trainer: recv aggregate from worker %d: %w", w, ar.err)
		return out
	}
	if ar.payload == nil {
		return out
	}
	g, ns, err := timedDecode(&cfg, ar.payload, dst)
	out.decodeNs = ns
	if err != nil {
		if !cfg.tolerant() {
			out.err = fmt.Errorf("trainer: decode aggregate from worker %d: %w", w, err)
			return out
		}
		out.corrupt++
		return out
	}
	out.g = g
	out.count = ar.count
	out.bytes = int64(len(ar.payload))
	return out
}

// gatherTreeRound is the driver's gather for a tree round: receive and
// decode one merged aggregate from each root-level worker (0 and 1), then
// weight every message by 1/total where total is the number of worker
// gradients the arrivals sum — the aggregate stays the unbiased mean of
// whatever subtrees made it. Quorum and strikes work like the star
// gather's, at subtree granularity: a missing or partial subtree degrades
// the round, a root link missing MaxStrikes consecutive rounds aborts.
func gatherTreeRound(cfg Config, round int, driverSide []*cluster.CountingConn, strikes []int, reuse []gradient.Sparse, acc *gradient.Accumulator, es *EpochStats, driverDecode *time.Duration) error {
	roots := cfg.Workers
	if roots > 2 {
		roots = 2
	}
	outs := make([]gatherOutcome, roots)
	var wg sync.WaitGroup
	wg.Add(roots)
	for r := 0; r < roots; r++ {
		go func(r int, cfg Config) {
			defer wg.Done()
			outs[r] = gatherAgg(cfg, driverSide[r], r, round, 0, &reuse[r])
		}(r, cfg)
	}
	wg.Wait()
	total := 0
	for r := range outs {
		*driverDecode += time.Duration(outs[r].decodeNs)
		es.Timeouts += outs[r].timeouts
		es.CorruptFrames += outs[r].corrupt
		es.StaleFrames += outs[r].stale
		if outs[r].g != nil {
			total += outs[r].count
			es.RawUpBytes += rawWireBytes(outs[r].g)
			es.DecodedBytes += outs[r].bytes
		}
	}
	if !cfg.tolerant() {
		for r := range outs {
			if outs[r].err != nil {
				return outs[r].err
			}
		}
		if total != cfg.Workers {
			return fmt.Errorf("trainer: strict tree gather summed %d/%d gradients in round %d", total, cfg.Workers, round)
		}
	} else {
		quorum := int(math.Ceil(cfg.MinGatherFraction * float64(cfg.Workers)))
		if quorum < 1 {
			quorum = 1
		}
		if total < quorum {
			return fmt.Errorf("trainer: round %d: quorum lost, only %d/%d gradients aggregated (need %d)",
				round, total, cfg.Workers, quorum)
		}
		for r := range outs {
			if outs[r].g != nil {
				strikes[r] = 0
				continue
			}
			strikes[r]++
			es.Strikes++
			if strikes[r] >= cfg.MaxStrikes {
				return fmt.Errorf("trainer: subtree root %d missed %d consecutive rounds (through round %d)",
					r, strikes[r], round)
			}
		}
		es.SkippedGrads += cfg.Workers - total
		if total < cfg.Workers {
			es.DegradedRounds++
		}
	}
	for r := range outs {
		if outs[r].g == nil {
			continue
		}
		if err := acc.Add(outs[r].g, 1.0/float64(total)); err != nil {
			return err
		}
	}
	return nil
}

// gatherRingRound is the driver's gather for a ring round: each worker w
// delivers the fully reduced chunk (w+1) mod W; every decoded chunk is
// weighted by 1/count of that chunk, so key ranges whose reduction missed
// some workers still apply an unbiased mean over the workers they did sum.
// Quorum counts arrived chunks (each is 1/W of the key space); strikes
// accrue per driver link like the star gather.
func gatherRingRound(cfg Config, round int, driverSide []*cluster.CountingConn, strikes []int, reuse []gradient.Sparse, acc *gradient.Accumulator, es *EpochStats, driverDecode *time.Duration) error {
	outs := make([]gatherOutcome, cfg.Workers)
	if cfg.Workers == 1 {
		outs[0] = gatherAgg(cfg, driverSide[0], 0, round, 0, &reuse[0])
	} else {
		var wg sync.WaitGroup
		wg.Add(cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			go func(w int, cfg Config) {
				defer wg.Done()
				outs[w] = gatherAgg(cfg, driverSide[w], w, round, (w+1)%cfg.Workers, &reuse[w])
			}(w, cfg)
		}
		wg.Wait()
	}
	arrived := 0
	degraded := false
	for w := range outs {
		*driverDecode += time.Duration(outs[w].decodeNs)
		es.Timeouts += outs[w].timeouts
		es.CorruptFrames += outs[w].corrupt
		es.StaleFrames += outs[w].stale
		if outs[w].g != nil {
			arrived++
			es.RawUpBytes += rawWireBytes(outs[w].g)
			es.DecodedBytes += outs[w].bytes
			if outs[w].count < cfg.Workers {
				degraded = true
			}
		}
	}
	if !cfg.tolerant() {
		for w := range outs {
			if outs[w].err != nil {
				return outs[w].err
			}
			if outs[w].count != cfg.Workers {
				return fmt.Errorf("trainer: strict ring gather: chunk from worker %d summed %d/%d gradients in round %d",
					w, outs[w].count, cfg.Workers, round)
			}
		}
	} else {
		quorum := int(math.Ceil(cfg.MinGatherFraction * float64(cfg.Workers)))
		if quorum < 1 {
			quorum = 1
		}
		if arrived < quorum {
			return fmt.Errorf("trainer: round %d: quorum lost, only %d/%d ring chunks arrived (need %d)",
				round, arrived, cfg.Workers, quorum)
		}
		for w := range outs {
			if outs[w].g != nil {
				strikes[w] = 0
				continue
			}
			strikes[w]++
			es.Strikes++
			if strikes[w] >= cfg.MaxStrikes {
				return fmt.Errorf("trainer: worker %d missed %d consecutive rounds (through round %d)",
					w, strikes[w], round)
			}
		}
		// A missing chunk skips 1/W of the key space — account it at chunk
		// granularity, like a missing star gradient.
		es.SkippedGrads += cfg.Workers - arrived
		if arrived < cfg.Workers || degraded {
			es.DegradedRounds++
		}
	}
	for w := range outs {
		if outs[w].g == nil {
			continue
		}
		if err := acc.Add(outs[w].g, 1.0/float64(outs[w].count)); err != nil {
			return err
		}
	}
	return nil
}
