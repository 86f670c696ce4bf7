package obs

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

// TestNilRegistryIsInert pins the zero-value contract the hot paths rely
// on: every operation on a nil registry, nil instrument, or zero Span is a
// no-op and allocates nothing.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil instruments: %v %v %v", c, g, h)
	}
	c.Add(5)
	c.Inc()
	g.Set(7)
	h.Observe(3)
	h.ObserveN(3, 10)
	h.Since(time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments retained state")
	}
	sp := r.StartSpan("round")
	if d := sp.End(); d != 0 {
		t.Fatalf("zero span reported duration %v", d)
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil registry snapshot = %+v, want nil", s)
	}

	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		h.Observe(1)
		s := r.StartSpan("x")
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("nil path allocates %v per run, want 0", allocs)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("codec.encodes")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if c2 := r.Counter("codec.encodes"); c2 != c {
		t.Fatal("same name resolved to a different counter")
	}
	g := r.Gauge("cluster.conns")
	g.Set(8)
	g.Set(5)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

// TestHistogramBuckets pins the log-spaced bucket mapping: bucket i holds
// [2^(i-1), 2^i), bucket 0 holds v <= 0.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 1; i < histBuckets; i++ {
		lo := bucketLo(i)
		if got := bucketOf(lo); got != i {
			t.Errorf("bucketLo(%d) = %d maps to bucket %d", i, lo, got)
		}
		if i > 1 {
			if got := bucketOf(lo - 1); got != i-1 {
				t.Errorf("bucketLo(%d)-1 = %d maps to bucket %d, want %d", i, lo-1, got, i-1)
			}
		}
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{100, 200, 300, 400, 1000} {
		h.Observe(v)
	}
	h.ObserveN(50, 5)
	s := h.snapshot()
	if s.Count != 10 {
		t.Fatalf("count = %d, want 10", s.Count)
	}
	if want := int64(100 + 200 + 300 + 400 + 1000 + 5*50); s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
	if s.Min != 50 || s.Max != 1000 {
		t.Fatalf("min/max = %d/%d, want 50/1000", s.Min, s.Max)
	}
	// p50: rank 5 of 10 lands in the bucket of 50 ([32,64)); the reported
	// quantile is that bucket's geometric midpoint, so it must be in-range.
	if s.P50 < 32 || s.P50 >= 64 {
		t.Fatalf("p50 = %d, want within [32, 64)", s.P50)
	}
	if s.P99 < 512 || s.P99 >= 1024 {
		t.Fatalf("p99 = %d, want within [512, 1024)", s.P99)
	}
	if len(s.Buckets) == 0 {
		t.Fatal("no buckets in snapshot")
	}
	var total int64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, count is %d", total, s.Count)
	}
}

func TestSpanRingOverwrite(t *testing.T) {
	r := NewRegistry()
	r.spans.buf = make([]SpanRecord, 4)
	for i := 0; i < 7; i++ {
		sp := r.StartSpan("s")
		sp.End()
	}
	spans, dropped := r.spans.snapshot()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(spans))
	}
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3", dropped)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNs < spans[i-1].StartNs {
			t.Fatalf("spans out of chronological order: %v", spans)
		}
	}
	// Span durations also feed the span.<name> histogram.
	if got := r.Histogram("span.s").Count(); got != 7 {
		t.Fatalf("span histogram count = %d, want 7", got)
	}
}

func TestSpanMeasuresElapsed(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("sleep")
	time.Sleep(5 * time.Millisecond)
	d := sp.End()
	if d < 5*time.Millisecond {
		t.Fatalf("span duration %v < slept 5ms", d)
	}
	spans, _ := r.spans.snapshot()
	if len(spans) != 1 || spans[0].DurNs != d.Nanoseconds() {
		t.Fatalf("recorded span %+v, want duration %d", spans, d.Nanoseconds())
	}
}

// TestConcurrentRecording hammers every instrument type from many
// goroutines; run under -race this is the layer's thread-safety proof, and
// the final tallies must be exact (no lost updates).
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	r.spans.buf = make([]SpanRecord, 64)
	const (
		workers = 8
		perW    = 1000
	)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			g := r.Gauge("g")
			for i := 0; i < perW; i++ {
				c.Add(1)
				h.Observe(int64(w*perW + i + 1))
				g.Set(int64(i))
				if i%100 == 0 {
					sp := r.StartSpan("work")
					sp.End()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perW {
		t.Fatalf("counter = %d, want %d", got, workers*perW)
	}
	h := r.Histogram("h")
	if h.Count() != workers*perW {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perW)
	}
	s := h.snapshot()
	if s.Min != 1 || s.Max != workers*perW {
		t.Fatalf("min/max = %d/%d, want 1/%d", s.Min, s.Max, workers*perW)
	}
	spans, dropped := r.spans.snapshot()
	if int64(len(spans))+dropped != workers*(perW/100) {
		t.Fatalf("span accounting: %d retained + %d dropped, want %d total",
			len(spans), dropped, workers*(perW/100))
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("codec.wire_bytes").Add(12345)
	r.Gauge("workers").Set(4)
	r.Histogram("encode_ns").Observe(1500)
	sp := r.StartSpan("round")
	sp.End()

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, data)
	}
	if back.Counters["codec.wire_bytes"] != 12345 {
		t.Fatalf("counter lost in round trip: %+v", back.Counters)
	}
	if back.Gauges["workers"] != 4 {
		t.Fatalf("gauge lost in round trip: %+v", back.Gauges)
	}
	if h, ok := back.Histograms["encode_ns"]; !ok || h.Count != 1 || h.Sum != 1500 {
		t.Fatalf("histogram lost in round trip: %+v", back.Histograms)
	}
	if len(back.Spans) != 1 || back.Spans[0].Name != "round" {
		t.Fatalf("spans lost in round trip: %+v", back.Spans)
	}
	if back.DurationNs <= 0 {
		t.Fatalf("duration %d <= 0", back.DurationNs)
	}
}
