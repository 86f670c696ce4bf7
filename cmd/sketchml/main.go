// Command sketchml trains a model with distributed SGD while compressing
// gradient traffic with a selectable codec, and reports per-epoch loss,
// traffic, and timing.
//
// Usage:
//
//	sketchml -data kdd12 -model LR -codec sketchml -workers 10 -epochs 5
//	sketchml -data path/to/file.libsvm -model SVM -codec zipml16
//	sketchml -data kdd10 -codec adam -tcp            # real loopback TCP
//	sketchml -serve 127.0.0.1:8080                   # training service mode
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux (served only with -pprof)
	"os"
	"slices"
	"strings"

	"sketchml"
	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/service"
	"sketchml/internal/stats"
)

func main() {
	var (
		data       = flag.String("data", "kdd10", "dataset: kdd10|kdd12|ctr or a LibSVM file path")
		modelN     = flag.String("model", "LR", "model: LR|SVM|Linear")
		codecN     = flag.String("codec", "sketchml", "codec: "+strings.Join(codec.Names(), "|"))
		workers    = flag.Int("workers", 4, "number of workers")
		epochs     = flag.Int("epochs", 3, "training epochs")
		batch      = flag.Float64("batch", 0.1, "mini-batch fraction of the training set")
		lr         = flag.Float64("lr", 0.1, "Adam learning rate")
		lambda     = flag.Float64("lambda", 0.01, "L2 regularization")
		seed       = flag.Int64("seed", 1, "random seed")
		useTCP     = flag.Bool("tcp", false, "exchange gradients over loopback TCP")
		gatherN    = flag.String("gather", "star", "gather shape: star|tree (tree merges sketches wire-to-wire; mergeable codec, in-memory transport only)")
		metricsOut = flag.String("metrics-out", "", "write a validated JSON run report (the run's per-epoch wire and raw-baseline bytes, stage times and robustness counters, sketch error, full metrics snapshot) to this path")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060) for the duration of the run")
	)
	so := registerServeFlags(flag.CommandLine)
	flag.Parse()
	if err := validateFlags(so.addr, *metricsOut); err != nil {
		fatal(err)
	}
	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}
	if so.addr != "" {
		if err := runServe(*so); err != nil {
			fatal(err)
		}
		return
	}

	// The run is a service job spec, built by the service's own builder;
	// only the file path and the transport are fields HTTP never accepts.
	spec := service.JobSpec{
		Dataset: *data, Model: *modelN, Codec: *codecN, Gather: *gatherN,
		Workers: *workers, Epochs: *epochs, BatchFraction: *batch,
		LR: *lr, Lambda: *lambda, Seed: *seed, TCP: *useTCP,
	}
	if dataset.Preset(*data) == nil {
		spec.LibSVM = *data
	}
	// One registry spans trainer, codec, and cluster so the run report's
	// cross-layer consistency checks (wire bytes vs. transport counters)
	// have one coherent view. nil when no report is requested — the
	// instrumented layers then cost a pointer compare each.
	var reg *sketchml.Metrics
	if *metricsOut != "" {
		reg = sketchml.NewMetrics()
	}
	cfg, train, test, err := spec.Build(reg)
	if err != nil {
		fatal(err)
	}

	all := dataset.Dataset{Instances: slices.Concat(train.Instances, test.Instances)}
	fmt.Printf("dataset: %s (%d train / %d test, D=%d, avg nnz %.1f)\n",
		*data, train.N(), test.N(), train.Dim, all.AvgNNZ())
	fmt.Printf("model %s, codec %s, %d workers, batch %.0f%%\n\n",
		cfg.Trainable.Name(), cfg.CodecFactory().Name(), *workers, *batch*100)

	res, err := sketchml.Train(cfg, train, test)
	if err != nil {
		fatal(err)
	}

	table := stats.NewTable("epoch", "test loss", "accuracy", "msg KB/round", "wall s")
	for _, e := range res.Epochs {
		table.AddRow(e.Epoch, e.TestLoss, e.Accuracy,
			float64(e.UpBytes)/float64(e.Rounds)/1024, e.WallTime.Seconds())
	}
	fmt.Println(table.String())
	fmt.Printf("final: loss %.4f, accuracy %.3f, avg %.1f KB/round upstream\n",
		res.FinalLoss, res.FinalAccuracy, res.AvgUpBytesPerRound()/1024)

	if *metricsOut != "" {
		rpt, err := sketchml.BuildRunReport("sketchml", res, reg)
		if err != nil {
			fatal(fmt.Errorf("run report inconsistent: %w", err))
		}
		if err := rpt.WriteFile(*metricsOut); err != nil {
			fatal(err)
		}
		var up, rawUp int64
		for _, e := range rpt.Epochs {
			up += e.UpBytes
			rawUp += e.RawUpBytes
		}
		fmt.Printf("report: %s (compression %.1fx, %d up bytes",
			*metricsOut, float64(rawUp)/float64(up), up)
		if rpt.SketchError != nil {
			fmt.Printf(", mean abs err %.3g, %d sign flips", rpt.SketchError.MeanAbsErr, rpt.SketchError.SignFlips)
		}
		fmt.Println(")")
	}
}

// validateFlags cross-checks flag combinations that cannot be rejected by
// any single flag's parser. It runs before any work starts so a bad
// combination is a fast, explicit startup error rather than a surprise
// after minutes of training. A gather shape the transport or codec cannot
// run is refused by JobSpec.Build, before any dataset is read.
func validateFlags(serveAddr, metricsOut string) error {
	if serveAddr != "" && metricsOut != "" {
		return fmt.Errorf("-metrics-out cannot be combined with -serve; fetch per-job metrics via GET /jobs/{id}?metrics=1")
	}
	return nil
}

// startPprof serves net/http/pprof for the process lifetime. The listener
// is bound synchronously so a bad address fails fast; the serve loop runs
// until exit.
func startPprof(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(fmt.Errorf("pprof listen: %w", err))
	}
	fmt.Printf("pprof: http://%s/debug/pprof/\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			fmt.Fprintf(os.Stderr, "sketchml: pprof server: %v\n", err)
		}
	}()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "sketchml: %v\n", err)
	os.Exit(1)
}
