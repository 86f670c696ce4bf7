// Package obs is the repository's stdlib-only observability layer: an
// atomic counter/gauge registry, fixed log-spaced-bucket histograms for
// latencies and size distributions, and lightweight span tracing into a
// bounded ring buffer, all exportable as one JSON snapshot.
//
// The paper's claims are quantitative — compression ratio, per-stage
// encode/decode cost, bounded recovery error — so the hot layers (codec,
// trainer, cluster) report where their bytes and nanoseconds go through
// this package. Two properties keep it safe on the hot path:
//
//   - Nil-safety: every method on a nil *Registry, *Counter, *Gauge,
//     *Histogram, or zero-value Span is a no-op. Code instruments
//     unconditionally; a nil registry (the default) costs one pointer
//     compare and zero allocations.
//   - Lock-free recording: counters, gauges, and histogram observations are
//     single atomic operations. Only span recording takes a (short) mutex,
//     and spans are per-round, not per-value.
//
// Instruments are resolved by name once (Registry.Counter et al.) and the
// returned handles are cached by the instrumented code, so steady-state
// recording never touches the registry's map.
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count of every histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i), with
// bucket 0 holding v <= 0. A positive int64 has at most 63 significant
// bits, so buckets 0..63 cover the whole range with no configuration and
// no out-of-range observations.
const histBuckets = 64

// Counter is a monotonically increasing atomic counter. The nil Counter
// discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value. The nil Gauge
// discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into fixed log-spaced (power-of-two)
// buckets. It is meant for latencies in nanoseconds and size or index
// distributions: log spacing gives constant relative resolution over twelve
// decades with no configuration. The nil Histogram discards everything.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
	max    atomic.Int64 // tracked via CAS; valid only when count > 0
	min    atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n identical observations in one shot — the batching hook
// that lets per-value instrumentation (e.g. the codec's bucket-index
// distribution) pre-aggregate locally and pay one atomic add per class
// instead of one per value.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil || n <= 0 {
		return
	}
	h.counts[bucketOf(v)].Add(n)
	h.sum.Add(v * n)
	h.count.Add(n)
	casMax(&h.max, v)
	casMin(&h.min, v)
}

// Since observes the nanoseconds elapsed from t0 — the common latency form.
func (h *Histogram) Since(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Nanoseconds())
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// bucketOf maps an observation to its log bucket: 0 for v <= 0, otherwise
// bits.Len64(v) so that bucket i spans [2^(i-1), 2^i).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketLo returns the inclusive lower edge of bucket i.
func bucketLo(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur {
			return
		}
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// casMin lowers the running minimum. newHistogram seeds min to MaxInt64 so
// the first observation always wins the race-free lowering loop; there is
// no first-observation special case to get wrong under concurrency.
func casMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur {
			return
		}
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// newHistogram builds a histogram with the min tracker seeded; histograms
// must be created through the registry (the zero value would report min 0).
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Counter names more than one layer uses: the cluster records them, and the
// trainer's run report and the benchmark read them back.
const (
	CounterClusterBytesRecv = "cluster.bytes_recv"
	CounterClusterBytesSent = "cluster.bytes_sent"
	// CounterTrainerHeapAllocs is the process allocation count across the
	// whole training loop — the run-level witness for the zero-allocation
	// steady state (microbenchmarks gate the per-op numbers).
	CounterTrainerHeapAllocs = "trainer.heap_allocs"
)

// Registry is a named collection of instruments plus a span trace. The nil
// Registry hands out nil instruments and zero Spans, so a single nil check
// at resolution time disables the whole layer.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    spanRing
	start    time.Time
}

// NewRegistry creates an empty registry whose span ring holds 4096
// entries. Older spans are overwritten once the ring is full; the dropped
// count is reported in the snapshot.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		spans:    spanRing{buf: make([]SpanRecord, 4096)},
		start:    time.Now(),
	}
}

// Counter resolves (creating on first use) the named counter. Returns nil
// on a nil registry; the handle should be cached by the caller.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge resolves (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram resolves (creating on first use) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's state at snapshot time. Quantiles
// are bucket-resolved: exact to within a factor of two (the log bucket
// width), which is the resolution the layer promises.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
	// Buckets maps the lower edge of each non-empty log bucket to its count.
	Buckets map[int64]int64 `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	var counts [histBuckets]int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		s.Count += counts[i]
	}
	s.Sum = h.sum.Load()
	if s.Count == 0 {
		return s
	}
	s.Mean = float64(s.Sum) / float64(s.Count)
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Buckets = make(map[int64]int64)
	for i, c := range counts {
		if c > 0 {
			s.Buckets[bucketLo(i)] = c
		}
	}
	s.P50 = quantileFromBuckets(counts[:], s.Count, 0.50)
	s.P90 = quantileFromBuckets(counts[:], s.Count, 0.90)
	s.P99 = quantileFromBuckets(counts[:], s.Count, 0.99)
	return s
}

// quantileFromBuckets returns the geometric midpoint of the bucket holding
// rank ceil(q*count).
func quantileFromBuckets(counts []int64, total int64, q float64) int64 {
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			lo := bucketLo(i)
			hi := lo * 2
			if i == 0 {
				return 0
			}
			return int64(math.Sqrt(float64(lo) * float64(hi)))
		}
	}
	return 0
}

// Snapshot is a point-in-time JSON-serializable copy of the whole registry.
type Snapshot struct {
	DurationNs   int64                        `json:"duration_ns"`
	Counters     map[string]int64             `json:"counters,omitempty"`
	Gauges       map[string]int64             `json:"gauges,omitempty"`
	Histograms   map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans        []SpanRecord                 `json:"spans,omitempty"`
	SpansDropped int64                        `json:"spans_dropped,omitempty"`
}

// Snapshot captures every instrument. Returns nil on a nil registry.
// Concurrent recording during a snapshot is safe; the snapshot is then a
// consistent-enough view (each instrument is read atomically, instruments
// are not mutually synchronized).
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := &Snapshot{DurationNs: time.Since(r.start).Nanoseconds()}
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		s.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			s.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.snapshot()
		}
	}
	s.Spans, s.SpansDropped = r.spans.snapshot()
	return s
}
