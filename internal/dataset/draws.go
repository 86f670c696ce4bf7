package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Generate reads one seeded math/rand stream in a fixed order: Zipf keys
// through rand.Zipf.Uint64, instance sizes through Intn, weights and values
// through NormFloat64. All three read the stream only through Source.Int63,
// one raw value at a time. One pass of Zipf.Uint64's loop reads exactly one
// raw value (Float64 reads another only when the first rounds to 1.0, and
// then the result is the pass over that next value), and whether the pass
// returns a key or loops again depends on that one value alone. So the
// pass's outcome for every raw value can be worked out on every core before
// the sequential draws reach it: that is where the exp and log are. The
// draws then read outcomes and raw values at one cursor, in stream order,
// and see what the stdlib's own calls would have returned.
//
// The draws read the source into chunks of chunkLen values, from a ring of
// at most ringLen chunks (ringLen·chunkLen·16 bytes = 4 MiB of lookahead),
// and hand each to a pool of one worker per core, which fills its outcomes
// (and finishes the instances, synthetic.go); the draws consume the chunks
// in order and refill each as they leave it. The ring starts at one chunk
// and grows by one each time the draws move on, so a small dataset works
// out little more than the values it reads.
const (
	chunkLen = 1 << 15
	ringLen  = 8
	// again is the outcome of a pass that loops: it holds no key.
	again = ^uint64(0)
)

// The table in front of the probe: cells cells over r = v/2⁶³, indexed by
// a raw value's top cellBits bits. Cell i holds every v whose r lies in
// [i/cells, (i+1)/cells] (float64(v) may round up onto the upper edge).
const (
	cellBits  = 16
	cells     = 1 << cellBits
	cellShift = 63 - cellBits
	// zipfGuard·(k+1) is how far inside k's accept region both edges of a
	// cell must lie. The curve's exp∘log is within about 1e-13·(k+1) of
	// the true inverse for exponents up to s = 1 + 1/maxCurveGain.
	zipfGuard = 1e-6
	// maxCurveGain bounds |1/(1−s)|, the factor by which the inverse
	// amplifies log's rounding; past it (s < 1.001) the table stays empty
	// and every pass asks the probe.
	maxCurveGain = 1000
)

// zipfCurve holds the constants rand.NewZipf(r, s, 1, imax) computes,
// recomputed by the same expressions, and evaluates the inverse that one
// pass of Zipf.Uint64 takes of r.
type zipfCurve struct {
	q, oneminusQ, oneminusQinv, hxm, hx0minusHxm, s float64
}

func newZipfCurve(s float64, imax uint64) zipfCurve {
	c := zipfCurve{q: s, oneminusQ: 1 - s}
	c.oneminusQinv = 1 / c.oneminusQ
	c.hxm = c.h(float64(imax) + 0.5)
	c.hx0minusHxm = c.h(0.5) - math.Exp(math.Log(1)*(-c.q)) - c.hxm
	c.s = 1 - c.hinv(c.h(1.5)-math.Exp(-c.q*math.Log(2)))
	return c
}

func (c *zipfCurve) h(x float64) float64 {
	return math.Exp(c.oneminusQ*math.Log(1+x)) * c.oneminusQinv
}

func (c *zipfCurve) hinv(x float64) float64 {
	return math.Exp(c.oneminusQinv*math.Log(c.oneminusQ*x)) - 1
}

// x is the point a pass computes from r, before it rounds to a key.
func (c *zipfCurve) x(r float64) float64 {
	return c.hinv(c.hxm + r*c.hx0minusHxm)
}

// edge is x at a cell's edge, r = e/cells.
func (c *zipfCurve) edge(e int) float64 {
	return c.x(float64(e) / cells)
}

// tabled reports whether the curve's rounding is far enough inside the
// guard for the table to decide cells (|1/(1−s)| ≤ maxCurveGain).
func (c *zipfCurve) tabled() bool {
	return math.Abs(c.oneminusQinv) <= maxCurveGain
}

// cellKey returns k+1 when every pass whose x lies between a and b takes
// the key k on its first test (k − x ≤ s, with k = ⌊x + 0.5⌋), and 0 when
// the pass must be asked: both points must lie inside [k − s, k + 0.5),
// shrunk by zipfGuard·(k+1) at each end. A NaN fails every comparison.
func (c *zipfCurve) cellKey(a, b float64) uint32 {
	lo, hi := min(a, b), max(a, b)
	k := math.Floor(hi + 0.5)
	g := zipfGuard * (k + 1)
	if !(k >= 0 && lo >= k-min(c.s, 0.5)+g && hi < k+0.5-g) {
		return 0
	}
	return uint32(k) + 1
}

// zipfTable maps a cell to k+1, or to 0 where the probe decides.
type zipfTable [cells]uint32

// newZipfTable fills the table on procs goroutines, each over a run of
// cells, and joins them. The top cell holds r = 1, which Float64 never
// returns, so it is always the probe's.
func newZipfTable(c *zipfCurve, procs int) *zipfTable {
	t := new(zipfTable)
	if !c.tabled() {
		return t
	}
	var wg sync.WaitGroup
	per := (cells + procs - 1) / procs
	for a := 0; a < cells-1; a += per {
		b := min(a+per, cells-1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := c.edge(a)
			for i := a; i < b; i++ {
				hi := c.edge(i + 1)
				t[i] = c.cellKey(lo, hi)
				lo = hi
			}
		}()
	}
	wg.Wait()
	return t
}

// probeSource hands a rand.Zipf the one raw value a pass reads. A second
// read means the pass looped; it is answered with the sentinel, which the
// next pass takes as key 0, so the call ends.
type probeSource struct {
	v, sentinel int64
	reads       int
}

func (p *probeSource) Int63() int64 {
	p.reads++
	if p.reads == 1 {
		return p.v
	}
	return p.sentinel
}

func (p *probeSource) Seed(int64) {}

// zipfJudge works out one pass of rand.Zipf.Uint64 for one raw value: the
// table where a cell decides, else the stdlib's own code over a probe.
type zipfJudge struct {
	table *zipfTable
	probe probeSource
	zipf  *rand.Zipf
}

func newZipfJudge(table *zipfTable, s float64, imax uint64, sentinel int64) *zipfJudge {
	j := &zipfJudge{table: table, probe: probeSource{sentinel: sentinel}}
	j.zipf = rand.NewZipf(rand.New(&j.probe), s, 1, imax)
	return j
}

// outcome is the key the pass over raw value v returns, or again.
func (j *zipfJudge) outcome(v int64) uint64 {
	if e := j.table[uint64(v)>>cellShift&(cells-1)]; e != 0 {
		return uint64(e - 1)
	}
	j.probe.v, j.probe.reads = v, 0
	k := j.zipf.Uint64()
	if j.probe.reads > 1 {
		return again
	}
	return k
}

// zipfSentinel returns a raw value whose pass takes key 0 on its first
// test, held to the table's guard: the value whose r maps to x ≈ 0, the
// middle of key 0's accept region [−s, 0.5). An exponent for which no such
// value checks out (NaN, +Inf, or one so large that the stdlib's constants
// underflow) is refused.
func zipfSentinel(c *zipfCurve) (int64, error) {
	r := (c.h(0) - c.hxm) / c.hx0minusHxm
	if r > 0 && r < 1 {
		v := int64(r * (1 << 63))
		x := c.x(float64(v) / (1 << 63))
		if c.cellKey(x, x) == 1 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("dataset: ZipfS=%v: no raw value is certain to end a rand.Zipf draw", c.q)
}

// chunk is chunkLen consecutive raw values of the stream and the outcome
// of a Zipf pass over each; done carries one token once out is filled.
type chunk struct {
	raw  [chunkLen]int64
	out  [chunkLen]uint64
	done chan struct{}
}

// drawStream is the seeded stream as Generate reads it. As a rand.Source
// (Int63) it returns the next raw value; key returns what the next
// Zipf.Uint64 call would. Both read at one cursor, so the values come in
// the order the stdlib's calls would read them.
type drawStream struct {
	src     rand.Source
	cur     *chunk
	pos     int
	ring    []*chunk // the chunks in flight, in stream order; cur first
	tasks   chan func(*zipfJudge)
	closing atomic.Bool
	wg      sync.WaitGroup
}

// startDraws starts a pool of GOMAXPROCS workers, each with its own judge,
// over the stream of rand.NewSource(seed), for Zipf draws of exponent s
// over [0, imax]. The pool judges chunks and runs what is sent on tasks.
func startDraws(seed int64, s float64, imax uint64) (*drawStream, error) {
	procs := runtime.GOMAXPROCS(0)
	c := newZipfCurve(s, imax)
	sentinel, err := zipfSentinel(&c)
	if err != nil {
		return nil, err
	}
	table := newZipfTable(&c, procs)
	// Room for the whole ring and one task a worker: sends seldom wait.
	d := &drawStream{
		src:   rand.NewSource(seed),
		pos:   chunkLen,
		tasks: make(chan func(*zipfJudge), ringLen+procs),
	}
	d.wg.Add(procs)
	for range procs {
		go func(j *zipfJudge) {
			defer d.wg.Done()
			for task := range d.tasks {
				task(j)
			}
		}(newZipfJudge(table, s, imax, sentinel))
	}
	return d, nil
}

// fill reads the source's next chunkLen values into c, puts c at the back
// of the ring and hands it to the pool to judge. Once close has begun, no
// draw reads c again, and the judging is skipped.
func (d *drawStream) fill(c *chunk) {
	for i := range c.raw {
		c.raw[i] = d.src.Int63()
	}
	d.ring = append(d.ring, c)
	d.tasks <- func(j *zipfJudge) {
		if !d.closing.Load() {
			for i, v := range c.raw {
				c.out[i] = j.outcome(v)
			}
			c.done <- struct{}{}
		}
	}
}

// advance refills the chunk the cursor just left, adds one more chunk
// until ringLen are in flight, and waits for the next chunk's outcomes.
func (d *drawStream) advance() {
	if d.cur != nil {
		d.ring = slices.Delete(d.ring, 0, 1)
		d.fill(d.cur)
	}
	if len(d.ring) < ringLen {
		d.fill(&chunk{done: make(chan struct{}, 1)})
	}
	d.cur = d.ring[0]
	<-d.cur.done
	d.pos = 0
}

// Int63 returns the next raw value: the stream Intn and NormFloat64 read
// through rand.New(d).
func (d *drawStream) Int63() int64 {
	if d.pos == chunkLen {
		d.advance()
	}
	v := d.cur.raw[d.pos]
	d.pos++
	return v
}

// Seed makes d a rand.Source; the stream is seeded once, at startDraws.
func (d *drawStream) Seed(int64) {}

// key returns the value rand.Zipf.Uint64 would: it reads the passes'
// outcomes at the cursor until one holds a key.
func (d *drawStream) key() uint64 {
	for {
		if d.pos == chunkLen {
			d.advance()
		}
		k := d.cur.out[d.pos]
		d.pos++
		if k != again {
			return k
		}
	}
}

// close skips the judging still queued, lets the pool run every other
// task, and waits for its workers to return.
func (d *drawStream) close() {
	d.closing.Store(true)
	close(d.tasks)
	d.wg.Wait()
}
