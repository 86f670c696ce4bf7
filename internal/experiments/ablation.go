package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sketchml/internal/codec"
	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
	"sketchml/internal/keycoding"
	"sketchml/internal/quantizer"
	"sketchml/internal/sketch/countmin"
	"sketchml/internal/sketch/minmax"
	"sketchml/internal/sketch/quantile"
	"sketchml/internal/stats"
)

// sampleGradient returns a realistic skewed gradient for ablations.
func sampleGradient(cfg Config, nnz int) *gradient.Sparse {
	d := dataset.KDD10Like(cfg.Seed)
	g := firstGradient(d, 0.1)
	if g.NNZ() > nnz {
		g.Keys = g.Keys[:nnz]
		g.Values = g.Values[:nnz]
	}
	return g
}

// AblationMinMaxVsCountMin contrasts the paper's min-insert/max-query
// strategy against the Count-Min additive strategy on the same bucket
// indexes (Section 3.3's motivation): additive estimates overestimate and
// would amplify gradients; MinMax only ever decays them.
func AblationMinMaxVsCountMin(cfg Config) (*Report, error) {
	g := sampleGradient(cfg, 8000)
	vals := make([]float64, g.NNZ())
	for i, v := range g.Values {
		vals[i] = math.Abs(v)
	}
	var z quantizer.Buckets
	if err := quantizer.BuildQuantileInto(&z, vals, 256); err != nil {
		return nil, err
	}
	rows, cols := 2, g.NNZ()/5

	mm := minmax.New(rows, cols, 42)
	cm := countmin.New(rows, cols, 42)
	truth := make([]int, g.NNZ())
	for i, k := range g.Keys {
		b := int(z.Index[i])
		truth[i] = b
		mm.Insert(k, uint16(b))
		cm.InsertWeighted(k, uint64(b)+1) // additive strategy stores index+1
	}
	var mmOver, cmOver, mmUnder int
	var mmErr, cmErr float64
	for i, k := range g.Keys {
		got, ok := mm.Query(k)
		if !ok {
			return nil, fmt.Errorf("minmax lost key %d", k)
		}
		if int(got) > truth[i] {
			mmOver++
		}
		if int(got) < truth[i] {
			mmUnder++
		}
		mmErr += math.Abs(float64(int(got) - truth[i]))

		cmGot := int(cm.Query(k)) - 1
		if cmGot > truth[i] {
			cmOver++
		}
		cmErr += math.Abs(float64(cmGot - truth[i]))
	}
	n := float64(g.NNZ())
	table := stats.NewTable("strategy", "overestimated %", "mean |index error|")
	table.AddRow("MinMaxSketch", 100*float64(mmOver)/n, mmErr/n)
	table.AddRow("Count-Min (additive)", 100*float64(cmOver)/n, cmErr/n)
	return &Report{
		Text: table.String() + fmt.Sprintf("\nMinMax underestimated %.1f%% (benign decay), overestimated %.2f%% (must be 0).\n",
			100*float64(mmUnder)/n, 100*float64(mmOver)/n),
		Metrics: map[string]float64{
			"minmax_over_pct":   100 * float64(mmOver) / n,
			"countmin_over_pct": 100 * float64(cmOver) / n,
			"minmax_mean_err":   mmErr / n,
			"countmin_mean_err": cmErr / n,
		},
	}, nil
}

// AblationSignSeparation measures the reversed-gradient rate (Figure 6's
// problem) with and without positive/negative separation under the full
// quantize-sketch-decode pipeline.
func AblationSignSeparation(cfg Config) (*Report, error) {
	g := sampleGradient(cfg, 8000)

	// Joint pipeline: one quantizer over signed values, one sketch; decayed
	// indexes can land in buckets of the opposite sign.
	var joint quantizer.Buckets
	if err := quantizer.BuildQuantileInto(&joint, g.Values, 256); err != nil {
		return nil, err
	}
	sk := minmax.New(2, g.NNZ()/5, 7)
	for i, k := range g.Keys {
		sk.Insert(k, uint16(joint.Index[i]))
	}
	jointReversed := 0
	for i, k := range g.Keys {
		idx, ok := sk.Query(k)
		if !ok {
			continue
		}
		if joint.Mean(int(idx))*g.Values[i] < 0 {
			jointReversed++
		}
	}

	// Separated pipeline: the shipped codec's round trip.
	c := codec.MustSketchML(codec.DefaultOptions())
	msg, err := c.Encode(g)
	if err != nil {
		return nil, err
	}
	dec, err := c.Decode(msg)
	if err != nil {
		return nil, err
	}
	if dec.NNZ() != g.NNZ() {
		return nil, fmt.Errorf("codec decoded %d keys of %d", dec.NNZ(), g.NNZ())
	}
	sepReversed := 0
	for i, v := range dec.Values {
		if v*g.Values[i] < 0 {
			sepReversed++
		}
	}

	n := float64(g.NNZ())
	table := stats.NewTable("pipeline", "reversed gradients %")
	table.AddRow("joint quantization", 100*float64(jointReversed)/n)
	table.AddRow("pos/neg separation", 100*float64(sepReversed)/n)
	return &Report{
		Text: table.String(),
		Metrics: map[string]float64{
			"joint_reversed_pct":     100 * float64(jointReversed) / n,
			"separated_reversed_pct": 100 * float64(sepReversed) / n,
		},
	}, nil
}

// AblationGrouping measures how the grouped sketch bounds decoded index
// error: worst-case and mean error for r in {1, 4, 8, 16} at equal total
// sketch size.
func AblationGrouping(cfg Config) (*Report, error) {
	g := sampleGradient(cfg, 8000)
	vals := make([]float64, g.NNZ())
	for i, v := range g.Values {
		vals[i] = math.Abs(v)
	}
	const q = 256
	var z quantizer.Buckets
	if err := quantizer.BuildQuantileInto(&z, vals, q); err != nil {
		return nil, err
	}
	totalCols := g.NNZ() / 5

	table := stats.NewTable("groups r", "bound q/r", "worst |err|", "mean |err|")
	metrics := map[string]float64{}
	for _, r := range []int{1, 4, 8, 16} {
		grp := minmax.NewGrouped(2, totalCols, q, r, 11)
		where := make([]int, g.NNZ())
		truth := make([]int, g.NNZ())
		for i, k := range g.Keys {
			b := int(z.Index[i])
			truth[i] = b
			where[i] = grp.Insert(k, b)
		}
		var worst int
		var sum float64
		for i, k := range g.Keys {
			got, ok := grp.Query(where[i], k)
			if !ok {
				return nil, fmt.Errorf("grouped sketch lost key %d", k)
			}
			e := truth[i] - got
			if e < 0 {
				e = -e
			}
			if e > worst {
				worst = e
			}
			sum += float64(e)
		}
		mean := sum / float64(g.NNZ())
		table.AddRow(r, q/r, worst, mean)
		metrics[fmt.Sprintf("r%d_worst", r)] = float64(worst)
		metrics[fmt.Sprintf("r%d_mean", r)] = mean
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// AblationQuantileVsUniform compares mean relative quantization error of
// equal-population (quantile) vs equal-width (uniform/ZipML) buckets on a
// real skewed gradient, across bucket budgets.
func AblationQuantileVsUniform(cfg Config) (*Report, error) {
	g := sampleGradient(cfg, 10000)
	table := stats.NewTable("buckets", "quantile rel err", "uniform rel err", "uniform/quantile")
	metrics := map[string]float64{}
	for _, q := range []int{16, 64, 256} {
		var zq quantizer.Buckets
		if err := quantizer.BuildQuantileInto(&zq, g.Values, q); err != nil {
			return nil, err
		}
		zu, err := quantizer.BuildUniform(g.Values, q)
		if err != nil {
			return nil, err
		}
		// Relative error over values of meaningful magnitude; denominators
		// below 1e-6 of the max are skipped (cancellation artifacts in the
		// batch sum would otherwise dominate the mean with 1e11-scale
		// ratios).
		floor := g.MaxAbs() * 1e-6
		rel := func(enc func(float64) float64) float64 {
			var s float64
			n := 0
			for _, v := range g.Values {
				if math.Abs(v) > floor {
					s += math.Abs(v-enc(v)) / math.Abs(v)
					n++
				}
			}
			return s / float64(n)
		}
		rq, ru := rel(zq.Encode), rel(zu.Encode)
		table.AddRow(q, rq, ru, ru/rq)
		metrics[fmt.Sprintf("q%d_quantile", q)] = rq
		metrics[fmt.Sprintf("q%d_uniform", q)] = ru
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}

// AblationKeyCodecs compares key encodings at several sparsity levels:
// blocked Elias–Fano (the codec's), delta-binary (the paper's), uvarint
// deltas, a dense bitmap, and the raw 4-byte baseline.
func AblationKeyCodecs(cfg Config) (*Report, error) {
	const dim = 1 << 22
	rng := rand.New(rand.NewSource(cfg.Seed))
	table := stats.NewTable("nnz", "Elias–Fano B/key", "delta B/key", "varint B/key", "bitmap B/key", "raw B/key")
	metrics := map[string]float64{}
	for _, nnz := range []int{2000, 20000, 200000} {
		seen := map[uint64]bool{}
		for len(seen) < nnz {
			seen[uint64(rng.Int63n(dim))] = true
		}
		keys := make([]uint64, 0, nnz)
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

		efData, err := keycoding.AppendEF(nil, keys)
		if err != nil {
			return nil, err
		}
		deltaData, err := keycoding.AppendDelta(nil, keys)
		if err != nil {
			return nil, err
		}
		varintData, err := keycoding.AppendVarint(nil, keys)
		if err != nil {
			return nil, err
		}
		n := float64(nnz)
		epk := float64(len(efData)) / n
		dpk := float64(len(deltaData)) / n
		vpk := float64(len(varintData)) / n
		bpk := float64(keycoding.BitmapSize(dim)) / n
		table.AddRow(nnz, epk, dpk, vpk, bpk, 4.0)
		key := fmt.Sprintf("nnz%d", nnz)
		metrics[key+"_ef"] = epk
		metrics[key+"_delta"] = dpk
		metrics[key+"_varint"] = vpk
		metrics[key+"_bitmap"] = bpk
	}
	var b strings.Builder
	b.WriteString(table.String())
	b.WriteString("\nbitmap cost is constant in D, so it only wins at extreme density (Appendix A.3).\n")
	return &Report{Text: b.String(), Metrics: metrics}, nil
}

// AblationSplitFinders measures the split finders where the paper's sketch
// lives, at the quantizer layer (§3.2): GK at the paper's m = 128 and
// m = 256, KLL (the algorithm behind the DataSketches library the paper's
// prototype uses) and the sort the codec runs, each finding q = 256 splits
// over one gradient's magnitudes. It reports the quantization error of the
// bucket means, the largest split rank error ÷ n (the εN contract) and the
// build time. Message size is not a column: it depends on q, not on where
// the splits fall.
func AblationSplitFinders(cfg Config) (*Report, error) {
	g := sampleGradient(cfg, 10000)
	mags := make([]float64, g.NNZ())
	for i, v := range g.Values {
		mags[i] = math.Abs(v)
	}
	sorted := append([]float64(nil), mags...)
	sort.Float64s(sorted)
	n := len(sorted)

	const q, reps = 256, 10
	var rank quantizer.Buckets
	finders := []struct {
		name  string
		build func() (*quantizer.Quantile, error)
	}{
		{"GK128", func() (*quantizer.Quantile, error) { return quantizer.BuildQuantile(mags, q, 128) }},
		{"GK256", func() (*quantizer.Quantile, error) { return quantizer.BuildQuantile(mags, q, 256) }},
		{"KLL", func() (*quantizer.Quantile, error) {
			sk := quantile.NewKLL(256, cfg.Seed)
			sk.InsertAll(mags)
			splits, err := sk.Splits(q)
			if err != nil {
				return nil, err
			}
			return quantizer.NewQuantileFromSplits(splits)
		}},
		{"Sort", func() (*quantizer.Quantile, error) {
			return &rank.Quantile, quantizer.BuildQuantileInto(&rank, mags, q)
		}},
	}
	table := stats.NewTable("finder", "quant L2 err", "max rank err / n", "build µs")
	metrics := map[string]float64{"n": float64(n)}
	for _, f := range finders {
		var z *quantizer.Quantile
		var err error
		start := time.Now()
		for i := 0; i < reps; i++ {
			if z, err = f.build(); err != nil {
				return nil, err
			}
		}
		buildUs := float64(time.Since(start).Microseconds()) / reps
		var sq float64
		for _, v := range mags {
			d := v - z.Encode(v)
			sq += d * d
		}
		// Split b's error is the distance from its target rank ⌊b·n/q⌋+1 to
		// the rank range its value occupies (a repeated value spans several).
		worst := 0
		for b, s := range z.Splits()[:q] {
			target := b*n/q + 1
			lo := sort.SearchFloat64s(sorted, s) + 1
			hi := sort.Search(n, func(i int) bool { return sorted[i] > s })
			worst = max(worst, lo-target, target-hi)
		}
		l2, rankErr := math.Sqrt(sq), float64(worst)/float64(n)
		table.AddRow(f.name, l2, rankErr, buildUs)
		metrics[f.name+"_l2"] = l2
		metrics[f.name+"_rank_err"] = rankErr
		metrics[f.name+"_build_us"] = buildUs
	}
	return &Report{Text: table.String(), Metrics: metrics}, nil
}
