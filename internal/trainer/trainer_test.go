package trainer

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/model"
	"sketchml/internal/optim"
)

func smallData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	d, err := dataset.Generate(dataset.SyntheticConfig{
		N: 600, Dim: 2000, AvgNNZ: 15, Task: dataset.Classification,
		NoiseStd: 0.3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d.Split(0.75, 1)
}

func adamFactory(lr float64) OptimizerFactory {
	return func(dim uint64) optim.Optimizer { return optim.NewAdam(lr, dim) }
}

// shared is a CodecFactory that hands every party the same instance.
func shared(c codec.Codec) func() codec.Codec {
	return func() codec.Codec { return c }
}

func TestRunReducesLossAllCodecs(t *testing.T) {
	train, test := smallData(t)
	codecs := []codec.Codec{
		&codec.Raw{},
		&codec.ZipML{Bits: 16},
		codec.MustSketchML(codec.DefaultOptions()),
	}
	for _, c := range codecs {
		res, err := Run(Config{
			Trainable:    model.Wrap(model.LogisticRegression{}),
			CodecFactory: shared(c),
			Optimizer:    adamFactory(0.1),
			Workers:      4,
			Epochs:       3,
			Lambda:       0.01,
			Seed:         2,
		}, train, test)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(res.Epochs) != 3 {
			t.Fatalf("%s: %d epochs", c.Name(), len(res.Epochs))
		}
		first, last := res.Epochs[0].TestLoss, res.FinalLoss
		if !(last < first) && math.Abs(last-first) > 1e-9 {
			t.Errorf("%s: test loss %v -> %v, expected decrease", c.Name(), first, last)
		}
		if res.FinalAccuracy < 0.6 {
			t.Errorf("%s: accuracy %.2f, want > 0.6", c.Name(), res.FinalAccuracy)
		}
		if res.CodecName != c.Name() {
			t.Errorf("result codec name %q", res.CodecName)
		}
	}
}

func TestSketchMLUsesLessTraffic(t *testing.T) {
	train, test := smallData(t)
	bytesFor := func(c codec.Codec) float64 {
		res, err := Run(Config{
			Trainable: model.Wrap(model.LogisticRegression{}), CodecFactory: shared(c),
			Optimizer: adamFactory(0.1), Workers: 4, Epochs: 2, Seed: 3,
		}, train, test)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgUpBytesPerRound()
	}
	raw := bytesFor(&codec.Raw{})
	zip := bytesFor(&codec.ZipML{Bits: 16})
	sk := bytesFor(codec.MustSketchML(codec.DefaultOptions()))
	if !(sk < zip && zip < raw) {
		t.Errorf("bytes per round: sketchml %.0f, zipml %.0f, raw %.0f — want strictly increasing", sk, zip, raw)
	}
}

func TestRunDeterministic(t *testing.T) {
	train, test := smallData(t)
	run := func() *Result {
		res, err := Run(Config{
			Trainable: model.Wrap(model.SVM{}), CodecFactory: shared(codec.MustSketchML(codec.DefaultOptions())),
			Optimizer: adamFactory(0.1), Workers: 3, Epochs: 2, Seed: 5,
		}, train, test)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FinalLoss != b.FinalLoss || a.FinalAccuracy != b.FinalAccuracy {
		t.Errorf("nondeterministic: %v/%v vs %v/%v",
			a.FinalLoss, a.FinalAccuracy, b.FinalLoss, b.FinalAccuracy)
	}
	for i := range a.Epochs {
		if a.Epochs[i].UpBytes != b.Epochs[i].UpBytes {
			t.Errorf("epoch %d traffic differs", i)
		}
	}
}

func TestTCPTransportMatchesInMemory(t *testing.T) {
	train, test := smallData(t)
	base := Config{
		Trainable: model.Wrap(model.LogisticRegression{}), CodecFactory: shared(codec.MustSketchML(codec.DefaultOptions())),
		Optimizer: adamFactory(0.1), Workers: 3, Epochs: 2, Seed: 7,
	}
	mem, err := Run(base, train, test)
	if err != nil {
		t.Fatal(err)
	}
	tcpCfg := base
	tcpCfg.UseTCP = true
	tcp, err := Run(tcpCfg, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if mem.FinalLoss != tcp.FinalLoss {
		t.Errorf("TCP loss %v != in-memory %v (protocol should be identical)",
			tcp.FinalLoss, mem.FinalLoss)
	}
	if mem.Epochs[0].UpBytes != tcp.Epochs[0].UpBytes {
		t.Errorf("TCP traffic %d != in-memory %d",
			tcp.Epochs[0].UpBytes, mem.Epochs[0].UpBytes)
	}
}

// newTCPLinks is the unwired links value and listener wireTCP works on.
func newTCPLinks(t *testing.T, workers int) (*links, *cluster.Listener) {
	t.Helper()
	l, err := cluster.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return &links{driver: make([]*cluster.CountingConn, workers), worker: make([]cluster.Conn, workers)}, l
}

// TestWireTCPPinsLinkToWorker: over TCP, as over the in-memory transport,
// driver end w is worker w's link — what per-worker chaos schedules,
// chaosOutage[w], strikes[w] and "worker w" in errors all assume. Collecting
// the accepts after all W dials, as the wiring used to, paired them in
// accept order.
func TestWireTCPPinsLinkToWorker(t *testing.T) {
	const workers = 8
	for rep := 0; rep < 20; rep++ {
		lk, l := newTCPLinks(t, workers)
		err := lk.wireTCP(context.Background(), l, func(_ int, c cluster.Conn) *cluster.CountingConn { return cluster.NewCounting(c) })
		if err != nil {
			t.Fatal(err)
		}
		for w := range lk.worker {
			if err := lk.worker[w].Send([]byte{byte(w)}); err != nil {
				t.Fatal(err)
			}
		}
		for w := range lk.driver {
			msg, err := lk.driver[w].RecvTimeout(5 * time.Second)
			if err != nil {
				t.Fatalf("rep %d: driver end %d: %v", rep, w, err)
			}
			if len(msg) != 1 || int(msg[0]) != w {
				t.Fatalf("rep %d: driver end %d received worker %v's frame", rep, w, msg)
			}
		}
		lk.close()
	}
}

// TestWireTCPFailureClosesWhatItOpened: a wiring that fails part-way (the
// listener goes away after k connections) returns the error and leaves no
// connection open on either side.
func TestWireTCPFailureClosesWhatItOpened(t *testing.T) {
	const workers, k = 8, 3
	lk, l := newTCPLinks(t, workers)
	var opened []cluster.Conn
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := lk.wireTCP(ctx, l, func(w int, c cluster.Conn) *cluster.CountingConn {
		opened = append(opened, c, lk.worker[w])
		if w == k-1 {
			_ = l.Close()
		}
		return cluster.NewCounting(c)
	})
	if err == nil {
		t.Fatal("wiring succeeded through a closed listener")
	}
	if len(opened) != 2*k {
		t.Fatalf("wiring opened %d connection ends before failing, want %d", len(opened), 2*k)
	}
	for i, c := range opened {
		// Only an end closed locally refuses a send outright; one whose peer
		// alone was closed would still accept the write.
		if err := c.Send([]byte{1}); !errors.Is(err, net.ErrClosed) {
			t.Errorf("connection end %d left open after the failed wiring (send: %v)", i, err)
		}
	}
}

func TestStatspopulated(t *testing.T) {
	train, test := smallData(t)
	res, err := Run(Config{
		Trainable: model.Wrap(model.LogisticRegression{}), CodecFactory: shared(codec.MustSketchML(codec.DefaultOptions())),
		Optimizer: adamFactory(0.1), Workers: 2, Epochs: 1, Seed: 1,
	}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	es := res.Epochs[0]
	if es.UpBytes <= 0 || es.DownBytes <= 0 {
		t.Errorf("traffic not recorded: up=%d down=%d", es.UpBytes, es.DownBytes)
	}
	if es.Rounds <= 0 {
		t.Error("rounds not recorded")
	}
	if es.ComputeTime <= 0 {
		t.Error("compute time not recorded")
	}
	if es.EncodeTime <= 0 || es.DecodeTime <= 0 {
		t.Error("codec time not recorded")
	}
	if es.DriverCodecTime <= 0 || es.DriverCodecTime >= es.EncodeTime+es.DecodeTime {
		t.Errorf("driver codec share %v not inside the all-party codec time %v", es.DriverCodecTime, es.EncodeTime+es.DecodeTime)
	}
	if es.WallTime <= 0 {
		t.Error("epoch wall time not recorded")
	}
}

func TestSingleWorker(t *testing.T) {
	train, test := smallData(t)
	res, err := Run(Config{
		Trainable: model.Wrap(model.Linear{}), CodecFactory: shared(&codec.Raw{}),
		Optimizer: adamFactory(0.05), Workers: 1, Epochs: 2, Seed: 4,
	}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 1 {
		t.Errorf("Workers = %d", res.Workers)
	}
}

func TestConfigErrors(t *testing.T) {
	train, test := smallData(t)
	if _, err := Run(Config{}, train, test); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := Run(Config{Trainable: model.Wrap(model.SVM{})}, &dataset.Dataset{Dim: 5}, test); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Trainable: model.Wrap(model.SVM{})}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.codec == nil || cfg.CodecFactory == nil || cfg.Optimizer == nil {
		t.Error("defaults not applied")
	}
	if cfg.codec.Name() != (&codec.Raw{}).Name() {
		t.Errorf("default codec %s, want Raw", cfg.codec.Name())
	}
	if cfg.Workers != 1 || cfg.Epochs != 1 {
		t.Errorf("defaults: workers=%d epochs=%d", cfg.Workers, cfg.Epochs)
	}
	if cfg.BatchFraction != 0.1 {
		t.Errorf("BatchFraction default = %v", cfg.BatchFraction)
	}

	// The tolerant protocol's thresholds are fixed: half the workers and
	// eight consecutive misses.
	tolerant := Config{Trainable: model.Wrap(model.SVM{}), RoundDeadline: time.Second}
	if err := tolerant.fill(); err != nil {
		t.Fatal(err)
	}
	if tolerant.minGatherFraction != 0.5 || tolerant.maxStrikes != 8 {
		t.Errorf("tolerant defaults: quorum %v, strikes %d; want 0.5 and 8", tolerant.minGatherFraction, tolerant.maxStrikes)
	}
}

// partyCodec is a Raw codec that records the key span of every gradient
// it encodes, so a test can tell which party an instance served. It
// overrides AppendEncode as well as Encode: the one promoted from the
// embedded Raw would encode without recording.
type partyCodec struct {
	codec.Raw
	mu    sync.Mutex
	spans [][2]uint64 // first and last key of each encoded gradient
}

func (p *partyCodec) Encode(g *gradient.Sparse) ([]byte, error) {
	return p.AppendEncode(nil, g)
}

func (p *partyCodec) AppendEncode(dst []byte, g *gradient.Sparse) ([]byte, error) {
	if n := len(g.Keys); n > 0 {
		p.mu.Lock()
		p.spans = append(p.spans, [2]uint64{g.Keys[0], g.Keys[n-1]})
		p.mu.Unlock()
	}
	return p.Raw.AppendEncode(dst, g)
}

// TestCodecFactoryOrder pins the CodecFactory contract a tracer counting
// instances relies on: a run calls the factory exactly W+1 times, and the
// first instance is the driver's, instance w+1 worker w's — on star, on
// tree and on a resumed run. Every instance of worker w's shard holds keys
// of band w only ([w·band, (w+1)·band)), so a worker's instance encodes
// keys of its own band alone while the driver's, encoding the aggregate,
// spans several.
func TestCodecFactoryOrder(t *testing.T) {
	const workers, band = 3, 100
	data := &dataset.Dataset{Dim: workers * band}
	for i := 0; i < 60*workers; i++ {
		lo := uint64(i%workers) * band // Shard deals instance i to worker i%W
		data.Instances = append(data.Instances, dataset.Instance{
			Keys:   []uint64{lo + uint64(i%7), lo + 50 + uint64(i%11)},
			Values: []float64{1, -0.5},
			Label:  float64(i%2*2 - 1),
		})
	}
	run := func(t *testing.T, cfg Config) []*partyCodec {
		t.Helper()
		var built []*partyCodec
		cfg.CodecFactory = func() codec.Codec {
			c := &partyCodec{}
			built = append(built, c)
			return c
		}
		if _, err := Run(cfg, data, data); err != nil {
			t.Fatal(err)
		}
		if len(built) != workers+1 {
			t.Fatalf("CodecFactory called %d times, want W+1 = %d", len(built), workers+1)
		}
		for k, c := range built {
			if len(c.spans) == 0 {
				t.Errorf("instance %d encoded nothing", k)
			}
			for _, s := range c.spans {
				first, last := s[0]/band, s[1]/band
				if k == 0 && first == last {
					t.Errorf("instance 0 (the driver's) encoded keys %v, one worker's band only", s)
				}
				if k > 0 && (first != uint64(k-1) || last != uint64(k-1)) {
					t.Errorf("instance %d encoded keys %v, outside worker %d's band", k, s, k-1)
				}
			}
		}
		return built
	}
	base := Config{
		Trainable: model.Wrap(model.LogisticRegression{}), Optimizer: adamFactory(0.1),
		Workers: workers, Epochs: 2, Lambda: 0.01, Seed: 5,
	}
	t.Run("star", func(t *testing.T) { run(t, base) })
	t.Run("tree", func(t *testing.T) {
		cfg := base
		cfg.Topology = cluster.TopologyTree
		run(t, cfg)
	})
	t.Run("resumed", func(t *testing.T) {
		drain := make(chan struct{})
		var cp *Checkpoint
		cfg := base
		cfg.Drain = drain
		cfg.OnCheckpoint = func(c *Checkpoint) error {
			if cp == nil {
				close(drain)
			}
			cp = c
			return nil
		}
		run(t, cfg)
		restored, err := UnmarshalCheckpoint(cp.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		cfg = base
		cfg.Resume = restored
		run(t, cfg)
	})
}

func TestWorkerReportRoundTrip(t *testing.T) {
	rep := workerReport{
		computeNs: 123, encodeNs: 456, decodeNs: 789,
		timeouts: 3, corrupt: 2, skippedSteps: 4,
		mergeNs: 321, merges: 6, aggBytes: 4096,
	}
	got, err := parseWorkerReport(rep.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != rep {
		t.Errorf("got %+v, want %+v", got, rep)
	}
	if _, err := parseWorkerReport([]byte{1, 2}); err == nil {
		t.Error("short report accepted")
	}
}

func TestCodecFactoryPerWorkerState(t *testing.T) {
	// A lossy codec, one instance per party: the factory path must train
	// and keep replicas in sync.
	train, test := smallData(t)
	res, err := Run(Config{
		Trainable:    model.Wrap(model.LogisticRegression{}),
		CodecFactory: func() codec.Codec { return &codec.TopK{Fraction: 0.3} },
		Optimizer:    adamFactory(0.1),
		Workers:      4,
		Epochs:       3,
		Lambda:       0.01,
		Seed:         9,
	}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.CodecName != "TopK-0.3" {
		t.Errorf("CodecName = %q", res.CodecName)
	}
	if res.FinalAccuracy < 0.6 {
		t.Errorf("accuracy %.2f with Top-K", res.FinalAccuracy)
	}
	first, last := res.Epochs[0].TestLoss, res.FinalLoss
	if last >= first {
		t.Errorf("loss %v -> %v, expected decrease", first, last)
	}
}
