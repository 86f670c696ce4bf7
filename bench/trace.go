package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
	"sketchml/internal/optim"
)

// Span names: one per public call the trainer makes into a layer. They are
// the layer boundaries the benchmark can see from outside the program.
const (
	spanBatchGradient = "model.batch_gradient"
	spanEvaluate      = "model.evaluate"
	spanEncode        = "codec.encode"
	spanDecodeInto    = "codec.decode_into"
	spanMergeInto     = "codec.merge_into"
	spanStep          = "optim.step"
)

// span is one timed call into a layer. Party 0 is the driver, 1..W the
// workers. Round is the global round the call belongs to (the identifier
// all spans of one round share); it is -1 for per-epoch evaluation.
type span struct {
	Name  string `json:"name"`
	Party int    `json:"party"`
	Round int    `json:"round"`
	Start int64  `json:"start_ns"` // offset from the tracer's origin
	End   int64  `json:"end_ns"`
	Cause string `json:"cause"` // the span that had to finish before this one could start
	NNZ   int    `json:"nnz,omitempty"`
	Bytes int    `json:"bytes,omitempty"`

	gid uint64 // goroutine of an encode or a model/optim call; resolves the latter's Party
}

// causes names, per span, the call whose result it consumes. Codec spans
// differ by side: a driver decode consumes a worker's encode and the
// other way round.
func causeOf(name string, party int) string {
	switch name {
	case spanBatchGradient:
		return spanStep
	case spanEncode:
		if party == 0 {
			return spanDecodeInto + "@driver"
		}
		return spanBatchGradient
	case spanMergeInto:
		return spanEncode + "@worker"
	case spanDecodeInto:
		if party == 0 {
			return spanEncode + "@worker"
		}
		return spanEncode + "@driver"
	case spanStep:
		return spanDecodeInto
	case spanEvaluate:
		return spanStep
	}
	return ""
}

// captureRounds picks the rounds whose gradients the traced run keeps for
// the replay: past the first rounds (whose gradients come from an all-zero
// model and are atypically uniform) and spread over the run.
func captureRounds(total int) (worker, agg map[int]bool) {
	worker, agg = map[int]bool{}, map[int]bool{}
	for _, f := range []float64{0.25, 0.75} {
		worker[int(f*float64(total))] = true
	}
	for _, f := range []float64{0.2, 0.4, 0.6, 0.8} {
		agg[int(f*float64(total))] = true
	}
	return worker, agg
}

// tracer records spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time

	// ownNs is the time the wrappers themselves took, over all parties:
	// from the moment a wrapped call returned until its wrapper did.
	ownNs atomic.Int64

	mu        sync.Mutex
	spans     []span
	gidParty  map[uint64]int
	workerCap map[int]bool
	aggCap    map[int]bool
	workerG   []*gradient.Sparse // captured worker gradients (pre-encode)
	aggG      []*gradient.Sparse // captured aggregates (pre-encode)

	// One worker batch and the model it was computed against, taken at
	// gradient call batchAt (mid-run, so the model is a trained one).
	gradCalls int
	batchAt   int
	batch     []*dataset.Instance
	theta     []float64
}

func newTracer(totalRounds, workers int) *tracer {
	w, a := captureRounds(totalRounds)
	return &tracer{
		origin:    time.Now(),
		spans:     make([]span, 0, 64*totalRounds),
		gidParty:  map[uint64]int{},
		workerCap: w,
		aggCap:    a,
		batchAt:   workers * totalRounds / 2,
	}
}

// goid returns the calling goroutine's id, read from the first line of its
// stack trace ("goroutine 123 [running]:"). The trainer hands every party
// the same Trainable and builds optimizers in no fixed order, so the
// goroutine is the only thing that ties a model or optimizer call to the
// party whose codec calls run on the same goroutine.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func (t *tracer) record(name string, party int, start, end time.Time, nnz, bytes int) {
	s := span{
		Name: name, Party: party, Round: -1,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		NNZ: nnz, Bytes: bytes,
	}
	if party < 0 || name == spanEncode {
		s.gid = goid()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	if name == spanEncode {
		// Every party encodes on its own main goroutine.
		t.gidParty[s.gid] = party
	}
	t.mu.Unlock()
}

// own adds the time since a wrapped call returned to the tracer's own time;
// every wrapper calls it last.
func (t *tracer) own(innerReturned time.Time) {
	t.ownNs.Add(time.Since(innerReturned).Nanoseconds())
}

// finish resolves parties and rounds once the run is over and returns the
// spans in start order. callsPerRound is fixed by the protocol in strict
// mode (no deadline, no faults): every party makes the same calls every
// round, so the k-th call of one kind by one party belongs to round
// k / (its calls per round).
func (t *tracer) finish(rounds int) ([]span, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	type key struct {
		name  string
		party int
	}
	byKey := map[key][]int{}
	for i := range spans {
		s := &spans[i]
		if s.Party < 0 {
			p, ok := t.gidParty[s.gid]
			if !ok {
				return nil, fmt.Errorf("trace: %s span on a goroutine that never encoded; cannot tell its party", s.Name)
			}
			s.Party = p
		}
		s.Cause = causeOf(s.Name, s.Party)
		byKey[key{s.Name, s.Party}] = append(byKey[key{s.Name, s.Party}], i)
	}
	for k, idx := range byKey {
		if k.name == spanEvaluate || k.name == spanCheckpoint {
			continue // once per epoch, not per round
		}
		if len(idx)%rounds != 0 {
			return nil, fmt.Errorf("trace: party %d made %d %s calls in %d rounds; cannot assign rounds", k.party, len(idx), k.name, rounds)
		}
		per := len(idx) / rounds
		for n, i := range idx {
			spans[i].Round = n / per
		}
	}
	return spans, nil
}

// writeChromeTrace writes the spans in Chrome trace-event format, one track
// (tid) per party, for chrome://tracing or Perfetto.
func writeChromeTrace(path string, spans []span, workers int) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans)+workers+1)
	for p := 0; p <= workers; p++ {
		name := "driver"
		if p > 0 {
			name = fmt.Sprintf("worker-%d", p-1)
		}
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: p, Args: map[string]any{"name": name}})
	}
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Party,
			Args: map[string]any{"round": s.Round, "cause": s.Cause, "nnz": s.NNZ, "bytes": s.Bytes},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func layerOf(spanName string) string {
	layer, _, _ := strings.Cut(spanName, ".")
	return layer
}

// fullCodec is what every codec the benchmark runs implements; the traced
// wrapper must offer the same set, because the trainer picks its decode
// and gather paths by asserting these interfaces on whatever it is given.
type fullCodec interface {
	codec.Codec
	codec.DecoderInto
	codec.Merger
}

// tracedCodec times every call one party makes into its codec.
type tracedCodec struct {
	inner   fullCodec
	party   int
	tr      *tracer
	encodes int // only the party's own goroutine encodes
}

// tracedCodecFactory wraps build so that instance 0 is the driver's and
// instances 1..W the workers', which is the order trainer.Run calls
// Config.CodecFactory in.
func tracedCodecFactory(build func() fullCodec, tr *tracer) func() codec.Codec {
	next := 0
	return func() codec.Codec {
		c := &tracedCodec{inner: build(), party: next, tr: tr}
		next++
		return c
	}
}

func (c *tracedCodec) Name() string { return c.inner.Name() }

func (c *tracedCodec) Encode(g *gradient.Sparse) ([]byte, error) {
	round := c.encodes
	c.encodes++
	t0 := time.Now()
	out, err := c.inner.Encode(g)
	t1 := time.Now()
	c.tr.record(spanEncode, c.party, t0, t1, g.NNZ(), len(out))
	if c.party == 0 && c.tr.aggCap[round] {
		c.tr.keep(&c.tr.aggG, g)
	}
	if c.party > 0 && c.tr.workerCap[round] {
		c.tr.keep(&c.tr.workerG, g)
	}
	c.tr.own(t1)
	return out, err
}

func (t *tracer) keep(dst *[]*gradient.Sparse, g *gradient.Sparse) {
	cp := g.Clone()
	t.mu.Lock()
	*dst = append(*dst, cp)
	t.mu.Unlock()
}

func (c *tracedCodec) Decode(data []byte) (*gradient.Sparse, error) {
	t0 := time.Now()
	g, err := c.inner.Decode(data)
	t1 := time.Now()
	nnz := 0
	if g != nil {
		nnz = g.NNZ()
	}
	c.tr.record(spanDecodeInto, c.party, t0, t1, nnz, len(data))
	c.tr.own(t1)
	return g, err
}

func (c *tracedCodec) DecodeInto(data []byte, dst *gradient.Sparse) error {
	t0 := time.Now()
	err := c.inner.DecodeInto(data, dst)
	t1 := time.Now()
	c.tr.record(spanDecodeInto, c.party, t0, t1, dst.NNZ(), len(data))
	c.tr.own(t1)
	return err
}

func (c *tracedCodec) Merge(a, b []byte) ([]byte, error) {
	return c.MergeInto(nil, a, b)
}

func (c *tracedCodec) MergeInto(dst, a, b []byte) ([]byte, error) {
	t0 := time.Now()
	out, err := c.inner.MergeInto(dst, a, b)
	t1 := time.Now()
	c.tr.record(spanMergeInto, c.party, t0, t1, 0, len(out))
	c.tr.own(t1)
	return out, err
}

// statefulOptimizer is an optimizer the trainer can checkpoint; the traced
// wrapper forwards the state methods so checkpoints keep working.
type statefulOptimizer interface {
	optim.Optimizer
	optim.StateMarshaler
}

type tracedOptimizer struct {
	inner statefulOptimizer
	tr    *tracer
}

func (o *tracedOptimizer) Name() string                     { return o.inner.Name() }
func (o *tracedOptimizer) Reset()                           { o.inner.Reset() }
func (o *tracedOptimizer) MarshalState() []byte             { return o.inner.MarshalState() }
func (o *tracedOptimizer) UnmarshalState(data []byte) error { return o.inner.UnmarshalState(data) }

func (o *tracedOptimizer) Step(theta []float64, g *gradient.Sparse) error {
	t0 := time.Now()
	err := o.inner.Step(theta, g)
	t1 := time.Now()
	o.tr.record(spanStep, -1, t0, t1, g.NNZ(), 0)
	o.tr.own(t1)
	return err
}

// tracedTrainable times gradient computation and evaluation. It also
// keeps one worker batch with the model it was computed against, for the
// replay. It does not forward InitTheta, so it suits models that start
// from zero (the generalized linear models).
type tracedTrainable struct {
	inner model.Trainable
	tr    *tracer
}

func (m *tracedTrainable) Name() string               { return m.inner.Name() }
func (m *tracedTrainable) ParamDim(dim uint64) uint64 { return m.inner.ParamDim(dim) }

func (m *tracedTrainable) BatchGradient(theta []float64, batch []*dataset.Instance, lambda float64) (*gradient.Sparse, float64) {
	t0 := time.Now()
	g, loss := m.inner.BatchGradient(theta, batch, lambda)
	t1 := time.Now()
	m.tr.record(spanBatchGradient, -1, t0, t1, g.NNZ(), 0)
	m.tr.keepBatch(theta, batch)
	m.tr.own(t1)
	return g, loss
}

// keepBatch copies the batch of gradient call batchAt and its model. The
// copy happens outside the lock so other parties' spans are not held up;
// nothing reads the copy until the run is over.
func (t *tracer) keepBatch(theta []float64, batch []*dataset.Instance) {
	t.mu.Lock()
	t.gradCalls++
	take := t.gradCalls == t.batchAt
	t.mu.Unlock()
	if !take {
		return
	}
	t.batch = append([]*dataset.Instance(nil), batch...)
	t.theta = append([]float64(nil), theta...)
}

func (m *tracedTrainable) Evaluate(theta []float64, d *dataset.Dataset) (float64, float64) {
	t0 := time.Now()
	loss, acc := m.inner.Evaluate(theta, d)
	t1 := time.Now()
	m.tr.record(spanEvaluate, -1, t0, t1, 0, 0)
	m.tr.own(t1)
	return loss, acc
}
