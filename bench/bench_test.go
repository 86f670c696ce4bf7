package main

import (
	"math"
	"regexp"
	"strings"
	"testing"

	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/optim"
)

// Nothing in this file asserts on a wall-clock value: timings only have to
// be recorded, ordered and summed consistently.

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {9, 50}, {20, 50}, {39, 50}, {40, 75}, {60, 75}, {99, 75},
		{100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want { //lint:allow float-equality ladder constants are returned unchanged
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// smallInputs is a 2 000-instance dataset with the same round geometry as
// the benchmark's (ten rounds per epoch at four workers).
func smallInputs(t *testing.T) *inputs {
	t.Helper()
	ds, err := dataset.Generate(dataset.SyntheticConfig{
		N: 2000, Dim: 5000, AvgNNZ: 20, ZipfS: 1.05, BinaryVals: true, NoiseStd: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(trainFraction, 3)
	return &inputs{train: train, test: test}
}

func TestWrappersForwardAndLeaveTheRunUnchanged(t *testing.T) {
	var c codec.Codec = &tracedCodec{}
	if _, ok := c.(codec.DecoderInto); !ok {
		t.Error("tracedCodec does not forward codec.DecoderInto")
	}
	if _, ok := c.(codec.Merger); !ok {
		t.Error("tracedCodec does not forward codec.Merger")
	}
	var o optim.Optimizer = &tracedOptimizer{}
	if _, ok := o.(optim.StateMarshaler); !ok {
		t.Error("tracedOptimizer does not forward optim.StateMarshaler")
	}

	in := smallInputs(t)
	for _, w := range []workload{{name: "star"}, {name: "tree", tree: true}, {name: "raw-tcp", raw: true, tcp: true}} {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runJob(w.config(7, nil), in)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer(totalRounds, workers)
			traced, err := runJob(w.config(7, tr), in)
			if err != nil {
				t.Fatal(err)
			}
			if plain.upBytes != traced.upBytes || plain.downBytes != traced.downBytes || plain.aggBytes != traced.aggBytes {
				t.Errorf("bytes up/down/agg: untraced %d/%d/%d, traced %d/%d/%d",
					plain.upBytes, plain.downBytes, plain.aggBytes, traced.upBytes, traced.downBytes, traced.aggBytes)
			}
			if !w.tcp && math.Float64bits(plain.finalLoss) != math.Float64bits(traced.finalLoss) {
				t.Errorf("final loss: untraced %v, traced %v", plain.finalLoss, traced.finalLoss)
			}
			if w.tree && traced.aggBytes == 0 {
				t.Error("tree run reported no aggregation-link bytes")
			}

			spans, err := tr.finish(totalRounds)
			if err != nil {
				t.Fatal(err)
			}
			perParty := map[int]int{}
			merges := 0
			for _, s := range spans {
				if s.Party < 0 || s.Party > workers {
					t.Fatalf("span %s has party %d", s.Name, s.Party)
				}
				if s.End < s.Start {
					t.Fatalf("span %s ends before it starts", s.Name)
				}
				if s.Name != spanEvaluate && (s.Round < 0 || s.Round >= totalRounds) {
					t.Fatalf("span %s has round %d", s.Name, s.Round)
				}
				if s.Name == spanBatchGradient || s.Name == spanStep {
					perParty[s.Party]++
				}
				if s.Name == spanMergeInto {
					merges++
				}
			}
			// Every worker computes and steps once a round, the driver only steps.
			for p := 0; p <= workers; p++ {
				want := 2 * totalRounds
				if p == 0 {
					want = totalRounds
				}
				if perParty[p] != want {
					t.Errorf("party %d has %d gradient+step spans, want %d", p, perParty[p], want)
				}
			}
			if w.tree != (merges > 0) {
				t.Errorf("tree=%v but %d merge spans", w.tree, merges)
			}
			if len(tr.workerG) < 8 || len(tr.aggG) < 4 || len(tr.batch) == 0 || len(tr.theta) == 0 {
				t.Errorf("captured %d worker gradients, %d aggregates, %d batch instances, %d parameters; the replay needs 8, 4, 1, 1",
					len(tr.workerG), len(tr.aggG), len(tr.batch), len(tr.theta))
			}

			phases, err := partitionRounds(spans, totalRounds)
			if err != nil {
				t.Fatal(err)
			}
			for r, p := range phases {
				if sum := p.Worker + p.Gather + p.BcastEnc + p.Broadcast + p.EpochWork; sum != p.Wall+p.Clamped {
					t.Errorf("round %d: phases sum to %d, wall %d, clamped %d", r, sum, p.Wall, p.Clamped)
				}
				if r > 0 && p.Start != phases[r-1].End {
					t.Errorf("round %d starts at %d, round %d ended at %d", r, p.Start, r-1, phases[r-1].End)
				}
			}
		})
	}
}

func TestPartitionRounds(t *testing.T) {
	// Two rounds, two workers, times in ns. Round 0: workers encode until 30
	// and 40, the driver decodes both (overlapping) in [45,60), encodes in
	// [70,90), then everyone decodes and steps, the last step ending at 130.
	sp := func(name string, party, round int, start, end int64) span {
		return span{Name: name, Party: party, Round: round, Start: start, End: end}
	}
	spans := []span{
		sp(spanBatchGradient, 1, 0, 10, 25), sp(spanBatchGradient, 2, 0, 12, 30),
		sp(spanEncode, 1, 0, 25, 30), sp(spanEncode, 2, 0, 30, 40),
		sp(spanDecodeInto, 0, 0, 45, 55), sp(spanDecodeInto, 0, 0, 50, 60),
		sp(spanEncode, 0, 0, 70, 90),
		sp(spanDecodeInto, 0, 0, 92, 100), sp(spanStep, 0, 0, 100, 105),
		sp(spanDecodeInto, 1, 0, 95, 110), sp(spanStep, 1, 0, 110, 120),
		sp(spanDecodeInto, 2, 0, 100, 120), sp(spanStep, 2, 0, 120, 130),
		// The driver evaluates while the workers finish round 0 and begin
		// round 1.
		sp(spanEvaluate, 0, -1, 105, 140),
		// Round 1 starts where round 0 ended.
		sp(spanBatchGradient, 1, 1, 121, 150), sp(spanBatchGradient, 2, 1, 131, 160),
		sp(spanEncode, 1, 1, 150, 155), sp(spanEncode, 2, 1, 160, 170),
		sp(spanDecodeInto, 0, 1, 171, 180), sp(spanDecodeInto, 0, 1, 172, 181),
		sp(spanEncode, 0, 1, 185, 200),
		sp(spanDecodeInto, 0, 1, 200, 205), sp(spanStep, 0, 1, 205, 210),
		sp(spanDecodeInto, 1, 1, 201, 211), sp(spanStep, 1, 1, 211, 215),
		sp(spanDecodeInto, 2, 1, 202, 212), sp(spanStep, 2, 1, 212, 220),
	}
	phases, err := partitionRounds(spans, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []roundPhases{
		{Start: 10, End: 130, Wall: 120, Worker: 30, Gather: 30, BcastEnc: 20,
			Broadcast:     15, // [90,130) minus the evaluation's [105,130)
			EpochWork:     25,
			GatherWait:    15, // [40,70) minus decodes covering [45,60)
			BroadcastWait: 2,  // [90,130) minus work and evaluation covering [92,130)
		},
		{Start: 130, End: 220, Wall: 90,
			Worker:    30, // [130,170) minus the evaluation's [130,140)
			EpochWork: 10,
			Gather:    15, BcastEnc: 15, Broadcast: 20,
			GatherWait: 5, BroadcastWait: 0},
	}
	for r := range want {
		if phases[r] != want[r] {
			t.Errorf("round %d:\n got  %+v\n want %+v", r, phases[r], want[r])
		}
		p := phases[r]
		if sum := p.Worker + p.Gather + p.BcastEnc + p.Broadcast + p.EpochWork; sum != p.Wall {
			t.Errorf("round %d: phases and epoch work sum to %d, wall %d", r, sum, p.Wall)
		}
	}

	// A worker encode that ends after the driver's encode starts is out of
	// order: the negative gather is clamped and reported.
	bad := append([]span(nil), spans...)
	bad[3] = sp(spanEncode, 2, 0, 30, 75)
	phases, err = partitionRounds(bad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if phases[0].Gather != 0 || phases[0].Clamped != 5 {
		t.Errorf("out-of-order round: gather %d clamped %d, want 0 and 5", phases[0].Gather, phases[0].Clamped)
	}

	if _, err := partitionRounds(spans[:6], 2); err == nil {
		t.Error("a round without a driver encode and a step was accepted")
	}
}

func TestQuietEpochAndJobTime(t *testing.T) {
	// Twelve epochs of about 1 s, seven of them stretched by slow phases:
	// the shortest is still an undisturbed epoch.
	walls := []float64{1.6, 1.3, 1.02, 1.3, 1.5, 1.4, 1, 1.01, 1.3, 1.03, 1.3, 1.04}
	if got := quietEpochS(walls); math.Abs(got-1) > 1e-12 {
		t.Errorf("quietEpochS = %v, want 1", got)
	}
	// 14.8 s in epochs and 1.2 s around them; the job's time counts twelve
	// quiet epochs and the 1.2 s as measured.
	j := &jobStats{epochWallS: walls}
	if got := j.jobTimeS(16); math.Abs(got-13.2) > 1e-9 {
		t.Errorf("jobTimeS(16) = %v, want 13.2", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of [1, 60]", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	// Every declared workload is one the command runs, in the command's
	// order; the command may run more than are declared.
	next := 0
	for _, w := range spec.Workloads {
		name(w.Name)
		for next < len(workloads) && workloads[next].name != w.Name {
			next++
		}
		if next == len(workloads) {
			t.Errorf("workload %q of BENCHMARK.json is not one the command runs, or is out of order", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
		layer := layerOf(m.Name)
		switch layer {
		case "trainer", "model", "optim", "codec", "quantizer", "sketch-quantile", "sketch-minmax",
			"keycoding", "gradient", "cluster", "dataset", "service":
		default:
			t.Errorf("%s: %q is not a module of this repository", m.Name, layer)
		}
	}
}

func TestCheckDeclared(t *testing.T) {
	declared := []specMetric{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "B"}, {Name: "c", Unit: "s"}}
	m := metricSet{}
	m.set("a", 1, "ms")
	m.set("b", 2, "KB")
	m.set("c", math.NaN(), "s")
	m.set("d", 4, "s")
	got := strings.Join(checkDeclared(m, declared), "\n")
	for _, want := range []string{"metric b is in KB, declared in B", "metric c is NaN", "metric d was measured but is not declared"} {
		if !strings.Contains(got, want) {
			t.Errorf("checkDeclared misses %q in:\n%s", want, got)
		}
	}
	delete(m, "a")
	if got := strings.Join(checkDeclared(m, declared), "\n"); !strings.Contains(got, "metric a is declared in BENCHMARK.json but was not measured") {
		t.Errorf("checkDeclared misses the unmeasured metric in:\n%s", got)
	}
	ok := metricSet{}
	ok.set("a", 1, "ms")
	if f := checkDeclared(ok, declared[:1]); len(f) != 0 {
		t.Errorf("a matching set failed: %v", f)
	}
}

func TestJudge(t *testing.T) {
	const bound = 0.10
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		higher bool
		parent []float64
		change []float64
		want   string
	}{
		{"same", false, steady, steady, verdictOK},
		{"slower within bound", false, steady, []float64{105, 106, 104, 105, 107}, verdictOK},
		{"slower beyond bound", false, steady, []float64{115, 116, 114, 115, 117}, verdictRegressed},
		{"faster", false, steady, []float64{80, 81, 79, 80, 82}, verdictOK},
		{"rate fell beyond bound", true, steady, []float64{85, 86, 84, 85, 87}, verdictRegressed},
		{"rate rose", true, steady, []float64{115, 116, 114, 115, 117}, verdictOK},
		{"noisy", false, []float64{80, 100, 120, 90, 110}, []float64{85, 100, 125, 95, 105}, verdictUnresolved},
		{"noisy but every run better", false, []float64{80, 100, 120, 90, 110}, []float64{50, 60, 70, 55, 65}, verdictOK},
		{"one run a side shows no spread", false, []float64{100}, []float64{120}, verdictUnresolved},
		{"two runs a side", false, []float64{100, 101}, []float64{120, 121}, verdictRegressed},
	} {
		if got, _, _ := judge(bound, tc.higher, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestJudgePaired(t *testing.T) {
	for _, tc := range []struct {
		name  string
		diffs []float64
		want  string
	}{
		{"no shared seed", nil, verdictUnresolved},
		{"one shared seed", []float64{0.02}, verdictUnresolved},
		{"same arithmetic", []float64{0, 0, 0}, verdictOK},
		{"within bound", []float64{0.002, 0.004, 0.003}, verdictOK},
		{"the whole gap between two codecs", []float64{0.043, 0.041, 0.045}, verdictRegressed},
		{"moves with the seed", []float64{-0.01, 0.012, 0.003, 0.02}, verdictUnresolved},
		{"moves with the seed but always better", []float64{-0.01, -0.03, -0.002, -0.02}, verdictOK},
	} {
		if got, _, _ := judgePaired(lossBoundAbs, tc.diffs); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestClaimBoundsAreDeclaredAndTighter(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]specMetric{}
	for _, m := range spec.EndToEnd {
		declared[m.Name] = m
	}
	for name, b := range claimBounds {
		m, ok := declared[name]
		if !ok {
			t.Errorf("claim bound for %s, which BENCHMARK.json does not declare", name)
		} else if b >= m.Bound {
			t.Errorf("claim bound %v for %s is no tighter than the declared %v", b, name, m.Bound)
		}
	}
	if _, ok := declared[lossMetric]; !ok {
		t.Errorf("BENCHMARK.json does not declare %s", lossMetric)
	}
}

// pairedRatio must give both sides the same number of calls and let each
// lead every other pair, or what going second costs does not cancel.
func TestPairedRatioAlternates(t *testing.T) {
	var order []byte
	aNs, _ := pairedRatio(4, one,
		func(int) { order = append(order, 'a') },
		func(int) { order = append(order, 'b') })
	if len(order)%4 != 0 || len(order) < 2*(4+2) {
		t.Fatalf("%d calls for 4 pairs and 2 warm-up pairs: %s", len(order), order)
	}
	for i := 0; i < len(order); i += 4 {
		if got := string(order[i : i+4]); got != "abba" {
			t.Fatalf("calls %d to %d ran in the order %s, want abba", i, i+3, got)
		}
	}
	if len(aNs) != len(order)/2-2 {
		t.Errorf("%d timings of a from %d calls of each side", len(aNs), len(order)/2)
	}
}
