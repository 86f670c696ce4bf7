package trainer

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"sketchml/internal/cluster"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
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

func TestRunReducesLossAllCodecs(t *testing.T) {
	train, test := smallData(t)
	codecs := []codec.Codec{
		&codec.Raw{},
		&codec.ZipML{Bits: 16},
		codec.MustSketchML(codec.DefaultOptions()),
	}
	for _, c := range codecs {
		res, err := Run(Config{
			Model:     model.LogisticRegression{},
			Codec:     c,
			Optimizer: adamFactory(0.1),
			Workers:   4,
			Epochs:    3,
			Lambda:    0.01,
			Seed:      2,
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
			Model: model.LogisticRegression{}, Codec: c,
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
			Model: model.SVM{}, Codec: codec.MustSketchML(codec.DefaultOptions()),
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
		Model: model.LogisticRegression{}, Codec: codec.MustSketchML(codec.DefaultOptions()),
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
// ChaosOutage[w], strikes[w] and "worker w" in errors all assume. Collecting
// the accepts after all W dials, as the wiring used to, paired them in
// accept order.
func TestWireTCPPinsLinkToWorker(t *testing.T) {
	const workers = 8
	for rep := 0; rep < 20; rep++ {
		lk, l := newTCPLinks(t, workers)
		err := lk.wireTCP(context.Background(), l, nil, func(_ int, c cluster.Conn) *cluster.CountingConn { return cluster.NewCounting(c) })
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
	err := lk.wireTCP(ctx, l, nil, func(w int, c cluster.Conn) *cluster.CountingConn {
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
		Model: model.LogisticRegression{}, Codec: codec.MustSketchML(codec.DefaultOptions()),
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
	if es.TrainLoss <= 0 {
		t.Error("train loss not recorded")
	}
}

func TestSingleWorker(t *testing.T) {
	train, test := smallData(t)
	res, err := Run(Config{
		Model: model.Linear{}, Codec: &codec.Raw{},
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
	if _, err := Run(Config{Model: model.SVM{}}, &dataset.Dataset{Dim: 5}, test); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{Model: model.SVM{}}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Codec == nil || cfg.Optimizer == nil {
		t.Error("defaults not applied")
	}
	if cfg.Workers != 1 || cfg.Epochs != 1 {
		t.Errorf("defaults: workers=%d epochs=%d", cfg.Workers, cfg.Epochs)
	}
	if cfg.BatchFraction != 0.1 {
		t.Errorf("BatchFraction default = %v", cfg.BatchFraction)
	}
}

func TestWorkerReportRoundTrip(t *testing.T) {
	rep := workerReport{
		computeNs: 123, encodeNs: 456, decodeNs: 789, lossSum: 1.5, rounds: 10,
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
	// Stateful codecs (error feedback) need one instance per sender; the
	// factory path must train correctly and keep replicas in sync.
	train, test := smallData(t)
	res, err := Run(Config{
		Model: model.LogisticRegression{},
		CodecFactory: func() codec.Codec {
			return codec.NewErrorFeedback(&codec.TopK{Fraction: 0.3})
		},
		Optimizer: adamFactory(0.1),
		Workers:   4,
		Epochs:    3,
		Lambda:    0.01,
		Seed:      9,
	}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if res.CodecName != "TopK-0.3+EF" {
		t.Errorf("CodecName = %q", res.CodecName)
	}
	if res.FinalAccuracy < 0.6 {
		t.Errorf("accuracy %.2f with error-feedback Top-K", res.FinalAccuracy)
	}
	first, last := res.Epochs[0].TestLoss, res.FinalLoss
	if last >= first {
		t.Errorf("loss %v -> %v, expected decrease", first, last)
	}
}
