package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of comparing one end-to-end metric on one workload.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// claimBounds are the bounds -compare judges by where they are tighter than
// the ones BENCHMARK.json declares. A declared bound has to be wider than
// the spread of ten runs on the host that accepts the benchmark, or every
// later change would be rejected by chance; for the three metrics below
// that makes it too wide to say a change cost nothing. -compare reads as
// many runs as it is given, says unresolved where they spread more than the
// bound, and so can hold the bounds the benchmark was asked to have.
var claimBounds = map[string]float64{
	"rounds_per_s":     0.07,
	"time_to_target_s": 0.10,
	"peak_rss_mb":      0.10,
}

// lossMetric is judged in absolute terms and seed by seed: the same seed
// gives the same loss (to the last bits over TCP) unless a change alters
// the arithmetic, while another seed moves it by several times the bound.
const (
	lossMetric    = "final_test_loss"
	lossBoundAbs  = 0.005
	minRunsPerSet = 2
)

func claimBound(m specMetric) float64 {
	if b, ok := claimBounds[m.Name]; ok && b < m.Bound {
		return b
	}
	return m.Bound
}

// spreadOf is the distance between the first and third quartile of xs; 0
// for fewer than two values.
func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return percentile(xs, 75) - percentile(xs, 25)
}

// judge applies bound, a share of the parent's median, to the parent's and
// the change's values. worse is by how much of the parent's median the
// change's median is worse (negative when it is better); spread is the
// wider of the two sides' quartile distances as a share of its median.
// Fewer than minRunsPerSet runs on a side show no spread and give no
// verdict. Where a side spreads wider than the bound the comparison is
// unresolved, unless every run of the change reads better than every run
// of the parent.
func judge(bound float64, higherIsBetter bool, parent, change []float64) (verdict string, worse, spread float64) {
	worse = (median(change) - median(parent)) / math.Abs(median(parent))
	if higherIsBetter {
		worse = -worse
	}
	spread = math.Max(spreadOf(parent)/math.Abs(median(parent)), spreadOf(change)/math.Abs(median(change)))
	if len(parent) < minRunsPerSet || len(change) < minRunsPerSet {
		return verdictUnresolved, worse, spread
	}
	if spread > bound {
		for _, c := range change {
			for _, p := range parent {
				if (higherIsBetter && c <= p) || (!higherIsBetter && c >= p) {
					return verdictUnresolved, worse, spread
				}
			}
		}
		return verdictOK, worse, spread
	}
	if worse > bound {
		return verdictRegressed, worse, spread
	}
	return verdictOK, worse, spread
}

// judgePaired applies an absolute bound to a lower-is-better metric that
// the seed determines: diffs are change − parent, one per seed both sets
// ran. worse is their median and spread their quartile distance.
func judgePaired(bound float64, diffs []float64) (verdict string, worse, spread float64) {
	if len(diffs) == 0 {
		return verdictUnresolved, 0, 0
	}
	worse, spread = median(diffs), spreadOf(diffs)
	if len(diffs) < minRunsPerSet {
		return verdictUnresolved, worse, spread
	}
	if spread > bound {
		for _, d := range diffs {
			if d >= 0 {
				return verdictUnresolved, worse, spread
			}
		}
		return verdictOK, worse, spread
	}
	if worse > bound {
		return verdictRegressed, worse, spread
	}
	return verdictOK, worse, spread
}

// compareFiles prints, one row per workload, the verdict on every
// end-to-end metric between two result sets, and reports whether any
// regressed.
func compareFiles(spec *benchSpec, parentPath, changePath string, out io.Writer) (regressed bool, err error) {
	parent, err := readResultSets(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readResultSets(changePath)
	if err != nil {
		return false, err
	}
	// bySeed returns a metric's untraced values on one workload, per seed.
	bySeed := func(s *resultSet, workload, metric string) map[int64][]float64 {
		xs := map[int64][]float64{}
		for _, r := range s.Runs {
			if r.Workload == workload && !r.Traced {
				if m, ok := r.Metrics[metric]; ok {
					xs[r.Seed] = append(xs[r.Seed], m.Value)
				}
			}
		}
		return xs
	}
	all := func(xs map[int64][]float64) []float64 {
		var flat []float64
		for _, runs := range xs {
			flat = append(flat, runs...)
		}
		return flat
	}
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
	}
	ran := func(s *resultSet, workload string) bool {
		for _, r := range s.Runs {
			if r.Workload == workload && !r.Traced {
				return true
			}
		}
		return false
	}
	for _, w := range workloads {
		// A workload the command runs but BENCHMARK.json does not declare is
		// compared where either set has it.
		if !declared[w.name] && !ran(parent, w.name) && !ran(change, w.name) {
			continue
		}
		fmt.Fprintf(out, "%s:", w.name)
		for _, m := range spec.EndToEnd {
			p, c := bySeed(parent, w.name, m.Name), bySeed(change, w.name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				fmt.Fprintf(out, "  %s=missing", m.Name)
				regressed = true
				continue
			}
			var verdict string
			if m.Name == lossMetric {
				var diffs []float64
				for seed, cs := range c {
					if ps, ok := p[seed]; ok {
						diffs = append(diffs, median(cs)-median(ps))
					}
				}
				var worse, spread float64
				verdict, worse, spread = judgePaired(lossBoundAbs, diffs)
				fmt.Fprintf(out, "  %s=%s(%+.4f worse over %d shared seeds, spread %.4f, bound %.4f)", m.Name, verdict, worse, len(diffs), spread, lossBoundAbs)
			} else {
				var worse, spread float64
				bound := claimBound(m)
				verdict, worse, spread = judge(bound, m.Better == "higher", all(p), all(c))
				fmt.Fprintf(out, "  %s=%s(%+.1f%% worse, spread %.1f%%, bound %.1f%%)", m.Name, verdict, 100*worse, 100*spread, 100*bound)
			}
			if verdict == verdictRegressed {
				regressed = true
			}
		}
		fmt.Fprintln(out)
	}
	return regressed, nil
}
