package sketchml_test

import (
	"math"
	"strings"
	"testing"

	"sketchml"
)

func TestQuickstartFlow(t *testing.T) {
	// The doc-comment flow must work verbatim.
	grad := sketchml.GradientFromMap(1_000_000, map[uint64]float64{42: 0.5, 1000: -0.25})
	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	msg, err := comp.Encode(grad)
	if err != nil {
		t.Fatal(err)
	}
	back, err := comp.Decode(msg)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != 2 || back.Keys[0] != 42 || back.Keys[1] != 1000 {
		t.Fatalf("keys corrupted: %v", back.Keys)
	}
	if back.Values[0] < 0 || back.Values[1] > 0 {
		t.Fatalf("signs corrupted: %v", back.Values)
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	d := sketchml.KDD10Like(7)
	// Build a realistic aggregate gradient from the first 10% of instances.
	m := map[uint64]float64{}
	for i := 0; i < d.N()/10; i++ {
		in := d.Instances[i]
		for j, k := range in.Keys {
			m[k] += -in.Label * in.Values[j] * 0.01
		}
	}
	g := sketchml.GradientFromMap(d.Dim, m)

	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sk, err := comp.Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := (&sketchml.RawCodec{}).Encode(g)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(raw)) / float64(len(sk)); ratio < 3 {
		t.Errorf("compression ratio %.2f, want >= 3", ratio)
	}
}

func TestTrainFacade(t *testing.T) {
	full := sketchml.KDD10Like(3)
	train, test := full.Split(0.75, 1)
	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sketchml.Train(sketchml.TrainConfig{
		Trainable:    sketchml.LogisticRegression(),
		CodecFactory: func() sketchml.Codec { return comp },
		Workers:      4,
		Epochs:       2,
		Lambda:       0.01,
		Seed:         1,
	}, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("%d epochs", len(res.Epochs))
	}
	if res.FinalAccuracy < 0.6 {
		t.Errorf("accuracy %.2f", res.FinalAccuracy)
	}
	if math.IsNaN(res.FinalLoss) {
		t.Error("NaN loss")
	}
}

func TestExperimentRegistryFacade(t *testing.T) {
	ids := sketchml.ExperimentIDs()
	if len(ids) < 15 {
		t.Fatalf("%d ids", len(ids))
	}
	rep, err := sketchml.RunExperiment("ablation-keycodec", sketchml.ExperimentConfig{Scale: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text == "" || len(rep.Metrics) == 0 {
		t.Error("empty report")
	}
	if sketchml.ExperimentTitle("fig4") == "" {
		t.Error("missing title")
	}
}

func TestModelByName(t *testing.T) {
	for _, n := range []string{"LR", "SVM", "Linear"} {
		if _, err := sketchml.ModelByName(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

// TestTopologyFacades drives the tree gather through the facade: the same
// run with TrainConfig.Topology = TopologyTree lands within 20% of the star
// run's loss, the contract TestTopologyEquivalenceSketchML holds the trainer
// to.
func TestTopologyFacades(t *testing.T) {
	full := sketchml.KDD10Like(9)
	train, test := full.Split(0.75, 1)
	run := func(topo sketchml.Topology) *sketchml.TrainResult {
		t.Helper()
		comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := sketchml.Train(sketchml.TrainConfig{
			Trainable:    sketchml.LogisticRegression(),
			CodecFactory: func() sketchml.Codec { return comp },
			Workers:      3,
			Epochs:       2,
			Lambda:       0.01,
			Seed:         1,
			Topology:     topo,
		}, train, test)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if res.Topology != topo.String() {
			t.Errorf("%s run labeled %q", topo, res.Topology)
		}
		return res
	}
	star, tree := run(sketchml.TopologyStar), run(sketchml.TopologyTree)
	if gap := math.Abs(tree.FinalLoss - star.FinalLoss); gap > 0.20*star.FinalLoss {
		t.Errorf("tree final loss %v vs star %v (gap %v exceeds 20%%)", tree.FinalLoss, star.FinalLoss, gap)
	}
	if tree.WorkerAggBytes == nil || tree.WorkerAggBytes[0] == 0 {
		t.Errorf("tree run reports no aggregation traffic at worker 0: %v", tree.WorkerAggBytes)
	}
}

// TestParseTopologyNamesWhatIsLeft: a removed gather shape is refused by an
// error that lists the ones that exist.
func TestParseTopologyNamesWhatIsLeft(t *testing.T) {
	for in, want := range map[string]sketchml.Topology{"": sketchml.TopologyStar, "star": sketchml.TopologyStar, "tree": sketchml.TopologyTree} {
		if got, err := sketchml.ParseTopology(in); err != nil || got != want {
			t.Errorf("ParseTopology(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"ring", "ps", "mesh"} {
		if _, err := sketchml.ParseTopology(in); err == nil || !strings.Contains(err.Error(), "star, tree") {
			t.Errorf("ParseTopology(%q): error %v does not list star, tree", in, err)
		}
	}
}
