package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/keycoding"
	"sketchml/internal/model"
	"sketchml/internal/optim"
	"sketchml/internal/quantizer"
	"sketchml/internal/service"
	"sketchml/internal/sketch/minmax"
	"sketchml/internal/sketch/quantile"
	"sketchml/internal/trainer"
)

// In a traced run W+1 parties share the cores, so a span's duration
// includes the time its goroutine waited to be scheduled. The replay gives
// the clean per-call costs: the gradients captured in the traced run go
// through each layer's public functions again, warm, on one goroutine,
// and every figure is the median of replayReps calls.
const replayReps = 20

// nullSpeedupTolerance is how far from 1 codec.parallel_speedup_x may read
// where both sides are the same codec.
const nullSpeedupTolerance = 0.05

// pairedMinTime is the least time a paired comparison runs for.
const pairedMinTime = 500 * time.Millisecond

type replayInputs struct {
	w       workload
	workerG []*gradient.Sparse
	aggG    []*gradient.Sparse
	batch   []*dataset.Instance
	theta   []float64
	train   *dataset.Dataset
	cp      *trainer.Checkpoint
	dir     string // scratch directory for the checkpoint store
}

// medianNs calls fn once to warm up, then reps times, and returns the
// median of time/units(i) in nanoseconds per unit.
func medianNs(reps int, units func(i int) int, fn func(i int)) float64 {
	fn(0)
	per := make([]float64, reps)
	for i := range per {
		t0 := time.Now()
		fn(i)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(units(i))
	}
	return median(per)
}

// pairedRatio times a and b in pairs, the side that goes first alternating
// from pair to pair, and returns a's times and how many times longer b takes
// than a. It runs at least minPairs pairs and goes on, up to maxPairs, until
// pairedMinTime has passed, so that calls of a millisecond get the hundreds
// of pairs their ratio needs to be steady.
//
// Whatever going second costs (a colder cache, a heap the first call has
// grown) multiplies the ratio b/a in the pairs a leads and divides it in
// the pairs b leads, so the geometric mean of the two groups' medians is
// free of it. The first two pairs, one in each order, warm up.
func pairedRatio(minPairs int, units func(i int) int, a, b func(i int)) (aNs []float64, ratio float64) {
	const maxPairs = 400
	timed := func(fn func(i int), i int) float64 {
		t0 := time.Now()
		fn(i)
		return float64(time.Since(t0).Nanoseconds()) / float64(units(i))
	}
	runtime.GC()
	var aLeads, bLeads []float64
	began := time.Now()
	for i := 0; i < minPairs+2 || i%2 == 1 || (time.Since(began) < pairedMinTime && i < maxPairs); i++ {
		var ta, tb float64
		if i%2 == 0 {
			ta = timed(a, i)
			tb = timed(b, i)
		} else {
			tb = timed(b, i)
			ta = timed(a, i)
		}
		switch {
		case i < 2:
		case i%2 == 0:
			aNs, aLeads = append(aNs, ta), append(aLeads, tb/ta)
		default:
			aNs, bLeads = append(aNs, ta), append(bLeads, tb/ta)
		}
	}
	return aNs, math.Sqrt(median(aLeads) * median(bLeads))
}

// allocsPer returns heap allocations and bytes per call of fn, averaged
// over n calls on an otherwise idle process.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	fn(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

func one(int) int { return 1 }

// sink keeps results of replayed calls alive so the compiler cannot drop
// the calls.
var sink int

// replay measures every layer on the captured inputs, adds the results to
// m, and returns the output checks that failed.
func replay(ri replayInputs, m metricSet) (failures []string, err error) {
	if len(ri.workerG) < 8 || len(ri.aggG) < 4 || len(ri.batch) == 0 {
		return nil, fmt.Errorf("replay: captured %d worker gradients, %d aggregates, %d batch instances; need 8, 4, 1",
			len(ri.workerG), len(ri.aggG), len(ri.batch))
	}
	// fail records the first error of a timed closure; the figures are
	// discarded when it is set.
	fail := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	wg := func(i int) *gradient.Sparse { return ri.workerG[i%len(ri.workerG)] }
	ag := func(i int) *gradient.Sparse { return ri.aggG[i%len(ri.aggG)] }
	wNNZ := func(i int) int { return wg(i).NNZ() }
	aNNZ := func(i int) int { return ag(i).NNZ() }

	// codec, at the workload's own configuration.
	c := ri.w.buildCodec()
	serial := c
	if !ri.w.raw {
		opts := codec.DefaultOptions()
		opts.Parallelism = 1
		serial = codec.MustSketchML(opts)
	}
	m.set("codec.encode_ns_per_nnz.worker", medianNs(replayReps, wNNZ, func(i int) {
		_, e := c.Encode(wg(i))
		fail(e)
	}), "ns/nnz")
	// Default parallelism against Parallelism 1 on the aggregates. Raw has no
	// such option: there both sides are the same codec, and the figure is
	// the null reading of the method, which must be 1.
	parallelNs, speedup := pairedRatio(replayReps, aNNZ,
		func(i int) {
			_, e := c.Encode(ag(i))
			fail(e)
		},
		func(i int) {
			_, e := serial.Encode(ag(i))
			fail(e)
		})
	m.set("codec.encode_ns_per_nnz.agg", median(parallelNs), "ns/nnz")
	m.set("codec.parallel_speedup_x", speedup, "x")
	if ri.w.raw && math.Abs(speedup-1) > nullSpeedupTolerance {
		failures = append(failures, fmt.Sprintf("replay: the same codec against itself reads a speed-up of %.3f, more than %.2f from 1", speedup, nullSpeedupTolerance))
	}

	wmsg := make([][]byte, len(ri.workerG))
	amsg := make([][]byte, len(ri.aggG))
	var wBytes, wTotalNNZ int
	for i, g := range ri.workerG {
		wmsg[i], err = c.Encode(g)
		if err != nil {
			return nil, err
		}
		wBytes += len(wmsg[i])
		wTotalNNZ += g.NNZ()
	}
	for i, g := range ri.aggG {
		if amsg[i], err = c.Encode(g); err != nil {
			return nil, err
		}
	}
	m.set("codec.bytes_per_nnz", float64(wBytes)/float64(wTotalNNZ), "B/nnz")

	var dst gradient.Sparse
	m.set("codec.decode_into_ns_per_nnz.worker", medianNs(replayReps, wNNZ, func(i int) {
		fail(c.DecodeInto(wmsg[i%len(wmsg)], &dst))
	}), "ns/nnz")
	m.set("codec.decode_into_ns_per_nnz.agg", medianNs(replayReps, aNNZ, func(i int) {
		fail(c.DecodeInto(amsg[i%len(amsg)], &dst))
	}), "ns/nnz")
	var mergeBuf []byte
	merge := func(i int) {
		out, e := c.MergeInto(mergeBuf, wmsg[i%len(wmsg)], wmsg[(i+1)%len(wmsg)])
		fail(e)
		mergeBuf = out
	}
	m.set("codec.merge_into_ns_per_nnz", medianNs(replayReps, func(i int) int { return wNNZ(i) + wNNZ(i+1) }, merge), "ns/nnz")

	allocs, bytes := allocsPer(replayReps, func(i int) {
		_, e := c.Encode(wg(i))
		fail(e)
	})
	m.set("codec.encode_allocs_per_msg", allocs, "count")
	m.set("codec.encode_alloc_kb_per_msg", bytes/1e3, "KB")
	allocs, _ = allocsPer(replayReps, func(i int) { fail(c.DecodeInto(wmsg[i%len(wmsg)], &dst)) })
	m.set("codec.decode_into_allocs_per_msg", allocs, "count")
	allocs, _ = allocsPer(replayReps, merge)
	m.set("codec.merge_into_allocs_per_msg", allocs, "count")

	// Round trip: keys must survive exactly and no value may change sign.
	var absErr, absVal float64
	var flips, values int
	for i, g := range ri.workerG {
		if e := c.DecodeInto(wmsg[i], &dst); e != nil {
			return nil, e
		}
		if len(dst.Keys) != len(g.Keys) {
			failures = append(failures, fmt.Sprintf("replay: message %d decoded %d keys, encoded %d", i, len(dst.Keys), len(g.Keys)))
			continue
		}
		for k := range g.Keys {
			if dst.Keys[k] != g.Keys[k] {
				failures = append(failures, fmt.Sprintf("replay: message %d key %d decoded as %d, was %d", i, k, dst.Keys[k], g.Keys[k]))
				break
			}
			v, got := g.Values[k], dst.Values[k]
			absErr += math.Abs(v - got)
			absVal += math.Abs(v)
			if (v > 0 && got < 0) || (v < 0 && got > 0) {
				flips++
			}
			values++
		}
	}
	m.set("codec.recovery_rel_err", absErr/absVal, "ratio")
	m.set("codec.sign_flip_share", float64(flips)/float64(values), "ratio")
	if flips > 0 {
		failures = append(failures, fmt.Sprintf("replay: %d of %d values changed sign in the round trip", flips, values))
	}

	// The layers under the codec, on the captured values and keys, at the
	// codec's default configuration.
	opts := codec.DefaultOptions()
	nVals := func(i int) int { return len(wg(i).Values) }
	m.set("quantizer.build_signed_ns_per_value", medianNs(replayReps, nVals, func(i int) {
		_, e := quantizer.BuildSigned(wg(i).Values, opts.Buckets, opts.SketchSize)
		fail(e)
	}), "ns/value")
	signed, e := quantizer.BuildSigned(wg(0).Values, opts.Buckets, opts.SketchSize)
	if e != nil {
		return nil, e
	}
	m.set("quantizer.bucket_ns_per_value", medianNs(replayReps, func(int) int { return nVals(0) }, func(int) {
		for _, v := range wg(0).Values {
			_, b := signed.Bucket(v)
			sink += b
		}
	}), "ns/value")
	mags := make([][]float64, len(ri.workerG))
	for i, g := range ri.workerG {
		mags[i] = make([]float64, len(g.Values))
		for k, v := range g.Values {
			mags[i][k] = math.Abs(v)
		}
	}
	m.set("sketch-quantile.gk_build_ns_per_value", medianNs(replayReps, nVals, func(i int) {
		sk := quantile.NewWithSize(opts.SketchSize)
		sk.InsertAll(mags[i%len(mags)])
		_, e := sk.Splits(opts.Buckets)
		fail(e)
	}), "ns/value")
	m.set("sketch-quantile.kll_build_ns_per_value", medianNs(replayReps, nVals, func(i int) {
		sk := quantile.NewKLL(opts.SketchSize, 1)
		sk.InsertAll(mags[i%len(mags)])
		_, e := sk.Splits(opts.Buckets)
		fail(e)
	}), "ns/value")

	keys := wg(0).Keys
	mag, e := quantizer.BuildQuantile(mags[0], opts.Buckets, opts.SketchSize)
	if e != nil {
		return nil, e
	}
	buckets := make([]int, len(keys))
	for k, v := range mags[0] {
		buckets[k] = mag.Bucket(v)
	}
	cols := max(int(opts.ColsFraction*float64(len(keys))), opts.MinCols)
	newSketch := func() *minmax.Grouped {
		return minmax.NewGrouped(opts.Rows, cols, mag.NumBuckets(), opts.Groups, opts.Seed)
	}
	nKeys := func(int) int { return len(keys) }
	var sketches []*minmax.Grouped
	for i := 0; i <= replayReps; i++ {
		sketches = append(sketches, newSketch())
	}
	next := 0
	m.set("sketch-minmax.insert_ns_per_key", medianNs(replayReps, nKeys, func(int) {
		sk := sketches[next]
		next++
		for k, key := range keys {
			sk.Insert(key, buckets[k])
		}
	}), "ns/key")
	filled := sketches[0]
	m.set("sketch-minmax.query_ns_per_key", medianNs(replayReps, nKeys, func(int) {
		for k, key := range keys {
			b, _ := filled.Query(filled.GroupOf(buckets[k]), key)
			sink += b
		}
	}), "ns/key")

	var keyBuf []byte
	m.set("keycoding.append_delta_ns_per_key", medianNs(replayReps, nKeys, func(int) {
		out, e := keycoding.AppendDelta(keyBuf[:0], keys)
		fail(e)
		keyBuf = out
	}), "ns/key")
	m.set("keycoding.bytes_per_key", float64(len(keyBuf))/float64(len(keys)), "B/key")
	keyDst := make([]uint64, 0, len(keys))
	m.set("keycoding.decode_delta_ns_per_key", medianNs(replayReps, nKeys, func(int) {
		_, _, e := keycoding.DecodeDeltaInto(keyBuf, keyDst[:0])
		fail(e)
	}), "ns/key")

	acc := gradient.NewAccumulator(dim)
	accNNZ := 0
	for i := 0; i < workers; i++ {
		accNNZ += wNNZ(i)
	}
	m.set("gradient.accumulate_ns_per_nnz", medianNs(replayReps, func(int) int { return accNNZ }, func(int) {
		for i := 0; i < workers; i++ {
			fail(acc.Add(wg(i), 1.0/workers))
		}
		sink += acc.Sum().NNZ()
	}), "ns/nnz")

	// model, optim, dataset.
	batchNNZ := 0
	for _, in := range ri.batch {
		batchNNZ += in.NNZ()
	}
	lr := model.Wrap(model.LogisticRegression{})
	m.set("model.batch_gradient_ns_per_nnz", medianNs(replayReps, func(int) int { return batchNNZ }, func(int) {
		g, _ := lr.BatchGradient(ri.theta, ri.batch, lambda)
		sink += g.NNZ()
	}), "ns/nnz")
	adam := optim.NewAdam(learningRate, dim)
	theta := append([]float64(nil), ri.theta...)
	m.set("optim.adam_step_ns_per_nnz", medianNs(replayReps, aNNZ, func(i int) {
		fail(adam.Step(theta, ag(i)))
	}), "ns/nnz")
	batcher := dataset.NewBatcher(ri.train, len(ri.batch), 1)
	var buf []*dataset.Instance
	m.set("dataset.batch_next_ns_per_instance", medianNs(replayReps, func(int) int { return len(ri.batch) }, func(int) {
		buf = batcher.Next(buf)
	}), "ns/instance")

	// cluster: the workload's own frame sizes over both transports.
	frames := [][]byte{make([]byte, wBytes/len(wmsg)), make([]byte, len(amsg[0]))}
	tcpUs, e := tcpFrameTimes(frames, 3*replayReps)
	if e != nil {
		return nil, e
	}
	a, b := cluster.Pair(2)
	memUs, e := frameTimes(a, b, frames, 3*replayReps)
	if e != nil {
		return nil, e
	}
	m.set("cluster.tcp_frame_us.p50", median(tcpUs), "us")
	m.set("cluster.tcp_frame_us.p90", percentile(tcpUs, 90), "us")
	m.set("cluster.tcp_mb_per_s", float64(len(frames[0])+len(frames[1]))/2/mean(tcpUs), "MB/s")
	m.set("cluster.mem_frame_us.p50", median(memUs), "us")

	// State saving, on one checkpoint of this model's size.
	const ckptReps = 3
	var blob []byte
	m.set("trainer.checkpoint_marshal_ms", medianNs(ckptReps, one, func(int) { blob = ri.cp.Marshal() })/1e6, "ms")
	store, e := service.NewCheckpointStore(ri.dir, nil)
	if e != nil {
		return nil, e
	}
	m.set("service.store_save_ms", medianNs(ckptReps, one, func(int) { fail(store.Save("replay", ri.cp)) })/1e6, "ms")
	m.set("service.store_load_ms", medianNs(ckptReps, one, func(int) {
		// A fresh store has nothing in memory, so Load reads the file.
		cold, e := service.NewCheckpointStore(ri.dir, nil)
		fail(e)
		if cold == nil {
			return
		}
		cp, e := cold.Load("replay")
		fail(e)
		if e == nil && (cp == nil || len(cp.Theta) != len(ri.cp.Theta)) {
			fail(errors.New("replay: checkpoint did not load back"))
		}
	})/1e6, "ms")
	store.Delete("replay")
	if len(blob) == 0 {
		fail(errors.New("replay: empty checkpoint blob"))
	}
	return failures, err
}

// frameTimes ping-pongs count frames of each size from a to b and returns
// each frame's time until b has it in full and a has b's one-byte
// acknowledgement, in microseconds. It closes both ends.
func frameTimes(a, b cluster.Conn, frames [][]byte, count int) ([]float64, error) {
	total := count * len(frames)
	echoDone := make(chan error, 1)
	go func() {
		ack := []byte{1}
		for i := 0; i < total+1; i++ { // one warm-up frame first
			if _, err := b.Recv(); err != nil {
				echoDone <- err
				return
			}
			if err := b.Send(ack); err != nil {
				echoDone <- err
				return
			}
		}
		echoDone <- nil
	}()
	pingPong := func(frame []byte) error {
		if err := a.Send(frame); err != nil {
			return err
		}
		_, err := a.Recv()
		return err
	}
	us := make([]float64, 0, total)
	err := pingPong(frames[0])
	for i := 0; i < total && err == nil; i++ {
		t0 := time.Now()
		err = pingPong(frames[i%len(frames)])
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	_ = a.Close() // also unblocks the echo side if it still waits for a frame
	echoErr := <-echoDone
	_ = b.Close()
	if err == nil {
		err = echoErr
	}
	return us, err
}

func tcpFrameTimes(frames [][]byte, count int) ([]float64, error) {
	l, err := cluster.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() { _ = l.Close() }()
	type accepted struct {
		c   cluster.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	a, err := cluster.Dial(l.Addr())
	if err != nil {
		_ = l.Close()
		<-ch
		return nil, err
	}
	srv := <-ch
	if srv.err != nil {
		_ = a.Close()
		return nil, srv.err
	}
	return frameTimes(a, srv.c, frames, count)
}
