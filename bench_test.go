// Benchmarks regenerating every table and figure of the SketchML paper's
// evaluation (go test -bench=. -benchmem). Each benchmark runs the
// corresponding experiment end-to-end and reports its headline metrics via
// b.ReportMetric, so `go test -bench Fig9a` prints the reproduction numbers
// the paper's Figure 9(a) reports. cmd/sketchbench runs the same
// experiments at full scale with complete tables.
package sketchml_test

import (
	"math/rand"
	"testing"

	"sketchml"
)

// benchScale keeps each experiment benchmark iteration in the low seconds.
const benchScale = 0.34

// runExperiment executes the experiment once per benchmark iteration and
// publishes the chosen metrics.
func runExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	cfg := sketchml.ExperimentConfig{Scale: benchScale, Seed: 1}
	var rep *sketchml.ExperimentReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = sketchml.RunExperiment(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for key, unit := range metrics {
		v, ok := rep.Metrics[key]
		if !ok {
			b.Fatalf("experiment %s did not report metric %q", id, key)
		}
		b.ReportMetric(v, unit)
	}
}

// BenchmarkFig4GradientHistogram regenerates Figure 4: the nonuniform,
// near-zero-concentrated distribution of gradient values.
func BenchmarkFig4GradientHistogram(b *testing.B) {
	runExperiment(b, "fig4", map[string]string{
		"fraction_near_zero": "frac-near-zero",
	})
}

// BenchmarkFig8aAblation regenerates Figure 8(a): epoch time for Adam,
// Adam+Key, Adam+Key+Quan, and full SketchML.
func BenchmarkFig8aAblation(b *testing.B) {
	runExperiment(b, "fig8a", map[string]string{
		"SketchML_LR_speedup": "LR-speedup-x",
		"Adam+Key_LR_speedup": "key-only-speedup-x",
	})
}

// BenchmarkFig8bMessageSize regenerates Figure 8(b): message size and
// compression rate per component stage.
func BenchmarkFig8bMessageSize(b *testing.B) {
	runExperiment(b, "fig8b", map[string]string{
		"SketchML_rate":  "compression-x",
		"SketchML_bytes": "msg-bytes",
	})
}

// BenchmarkFig8cCPUOverhead regenerates Figure 8(c): the CPU cost of the
// compression pipeline.
func BenchmarkFig8cCPUOverhead(b *testing.B) {
	runExperiment(b, "fig8c", map[string]string{
		"SketchML_codec_share_pct": "codec-cpu-pct",
	})
}

// BenchmarkFig8dSparsity regenerates Figure 8(d): batch ratio vs gradient
// sparsity, run time, and delta-key bytes.
func BenchmarkFig8dSparsity(b *testing.B) {
	runExperiment(b, "fig8d", map[string]string{
		"ratio_0.1_bytes_per_key":  "bytes-per-key@10pct",
		"ratio_0.01_bytes_per_key": "bytes-per-key@1pct",
	})
}

// BenchmarkFig9aKDD12 regenerates Figure 9(a): end-to-end epoch time on the
// KDD12-like dataset, 10 workers.
func BenchmarkFig9aKDD12(b *testing.B) {
	runExperiment(b, "fig9a", map[string]string{
		"SketchML_LR_speedup":    "LR-speedup-x",
		"ZipML-16bit_LR_speedup": "zipml-LR-speedup-x",
	})
}

// BenchmarkFig9bCTR regenerates Figure 9(b): end-to-end epoch time on the
// denser CTR-like dataset, 50 workers (smaller speedups, Section 4.3.2).
func BenchmarkFig9bCTR(b *testing.B) {
	runExperiment(b, "fig9b", map[string]string{
		"SketchML_LR_speedup":  "LR-speedup-x",
		"SketchML_SVM_speedup": "SVM-speedup-x",
	})
}

// BenchmarkFig10Convergence regenerates Figure 10: loss vs simulated time
// curves for the three codecs.
func BenchmarkFig10Convergence(b *testing.B) {
	runExperiment(b, "fig10", map[string]string{
		"SketchML_LR_KDD12_time_to_target": "sk-time-to-adam-loss-s",
		"Adam_LR_KDD12_time_to_target":     "adam-time-to-adam-loss-s",
	})
}

// BenchmarkTable2Accuracy regenerates Table 2: minimal loss and simulated
// time to the <1%-variation-in-5-epochs convergence criterion.
func BenchmarkTable2Accuracy(b *testing.B) {
	runExperiment(b, "tab2", map[string]string{
		"SketchML_LR_min_loss":     "sk-LR-loss",
		"Adam_LR_min_loss":         "adam-LR-loss",
		"SketchML_LR_conv_seconds": "sk-LR-conv-s",
	})
}

// BenchmarkFig11Scalability regenerates Figure 11: 5/10/50-worker epoch
// times, with Adam degrading at 50 while SketchML improves.
func BenchmarkFig11Scalability(b *testing.B) {
	runExperiment(b, "fig11", map[string]string{
		"Adam_LR_w10_seconds":     "adam-10w-s",
		"Adam_LR_w50_seconds":     "adam-50w-s",
		"SketchML_LR_w50_seconds": "sk-50w-s",
	})
}

// BenchmarkFig12SingleNode regenerates Figure 12 (Appendix B.1): the
// distributed runs against a single-node baseline.
func BenchmarkFig12SingleNode(b *testing.B) {
	runExperiment(b, "fig12", map[string]string{
		"SingleNode_LR_seconds":  "single-s",
		"SketchML-10_LR_seconds": "sk-10w-s",
	})
}

// BenchmarkFig13Sensitivity regenerates Figure 13 + Table 3: quantile size,
// sketch rows, sketch columns.
func BenchmarkFig13Sensitivity(b *testing.B) {
	runExperiment(b, "fig13", map[string]string{
		"default_seconds": "default-s",
		"row_4_seconds":   "rows4-s",
	})
}

// BenchmarkFig14NeuralNet regenerates Figure 14 (Appendix B.3): MLP
// convergence with compressed dense gradients.
func BenchmarkFig14NeuralNet(b *testing.B) {
	runExperiment(b, "fig14", map[string]string{
		"SketchML_accuracy": "sk-accuracy",
		"Adam_accuracy":     "adam-accuracy",
	})
}

// BenchmarkTable4WeightTypes regenerates Table 4 (Appendix B.4): SketchML
// against 8/16-bit ZipML and float/double Adam.
func BenchmarkTable4WeightTypes(b *testing.B) {
	runExperiment(b, "tab4", map[string]string{
		"SketchML_seconds":   "sk-s",
		"ZipML-8bit_seconds": "zipml8-s",
		"Adam_seconds":       "adam-double-s",
	})
}

// ---- ablation benches for the design choices DESIGN.md calls out ----

// BenchmarkAblationMinMaxVsCountMin contrasts min-insert/max-query against
// the Count-Min additive strategy.
func BenchmarkAblationMinMaxVsCountMin(b *testing.B) {
	runExperiment(b, "ablation-minmax", map[string]string{
		"minmax_over_pct":   "minmax-overest-pct",
		"countmin_over_pct": "countmin-overest-pct",
	})
}

// BenchmarkAblationSignSeparation measures reversed-gradient rates with and
// without positive/negative separation.
func BenchmarkAblationSignSeparation(b *testing.B) {
	runExperiment(b, "ablation-sign", map[string]string{
		"joint_reversed_pct":     "joint-reversed-pct",
		"separated_reversed_pct": "separated-reversed-pct",
	})
}

// BenchmarkAblationGrouping measures decoded index error against the group
// count r.
func BenchmarkAblationGrouping(b *testing.B) {
	runExperiment(b, "ablation-grouping", map[string]string{
		"r1_mean": "r1-mean-err",
		"r8_mean": "r8-mean-err",
	})
}

// BenchmarkAblationQuantileVsUniform measures relative quantization error
// of equal-population vs equal-width buckets.
func BenchmarkAblationQuantileVsUniform(b *testing.B) {
	runExperiment(b, "ablation-quantile", map[string]string{
		"q256_quantile": "quantile-rel-err",
		"q256_uniform":  "uniform-rel-err",
	})
}

// BenchmarkAblationKeyCodecs measures bytes/key for delta-binary, varint,
// and bitmap key encodings.
func BenchmarkAblationKeyCodecs(b *testing.B) {
	runExperiment(b, "ablation-keycodec", map[string]string{
		"nnz20000_delta":  "delta-bytes-per-key",
		"nnz20000_varint": "varint-bytes-per-key",
	})
}

// ---- codec micro-benchmarks on a realistic gradient ----

func benchGradient() *sketchml.Gradient {
	rng := rand.New(rand.NewSource(11))
	m := map[uint64]float64{}
	for len(m) < 20_000 {
		v := rng.ExpFloat64() * 0.02
		if rng.Intn(2) == 0 {
			v = -v
		}
		m[uint64(rng.Int63n(400_000))] = v
	}
	return sketchml.GradientFromMap(400_000, m)
}

// BenchmarkCompressorEncode measures SketchML encode throughput.
func BenchmarkCompressorEncode(b *testing.B) {
	g := benchGradient()
	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Encode(g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NNZ())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mkeys/s")
}

// BenchmarkCompressorDecode measures SketchML decode throughput.
func BenchmarkCompressorDecode(b *testing.B) {
	g := benchGradient()
	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	msg, err := comp.Encode(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comp.Decode(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NNZ())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mkeys/s")
}

// BenchmarkAblationLossyBaselines measures the related-work lossy codecs
// (1-bit SGD, Top-K, error feedback) against SketchML.
func BenchmarkAblationLossyBaselines(b *testing.B) {
	runExperiment(b, "ablation-lossy", map[string]string{
		"SketchML_loss": "sk-loss",
		"OneBit_loss":   "onebit-loss",
		"TopK-0.1_loss": "topk-loss",
	})
}

// BenchmarkExtensionFactorizationMachine trains an FM through each codec.
func BenchmarkExtensionFactorizationMachine(b *testing.B) {
	runExperiment(b, "extension-fm", map[string]string{
		"SketchML_accuracy": "sk-fm-accuracy",
		"SketchML_seconds":  "sk-fm-s",
	})
}
