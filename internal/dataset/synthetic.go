package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Task selects what kind of labels a synthetic dataset carries.
type Task int

// Supported synthetic tasks.
const (
	// Classification yields ±1 labels from a noisy linear separator (for
	// Logistic Regression and SVM).
	Classification Task = iota
	// Regression yields real-valued labels from a noisy linear model.
	Regression
)

// SyntheticConfig describes a synthetic sparse dataset. The generator draws
// feature indexes from a Zipf power law, which reproduces the defining
// property of KDD10/KDD12/CTR-style web data: a few extremely common
// features, a long tail of rare ones, and therefore sparse, nonuniform
// gradients (the Figure 4 shape).
type SyntheticConfig struct {
	N          int     // number of instances
	Dim        uint64  // feature-space dimension (the paper's D)
	AvgNNZ     int     // mean active features per instance
	ZipfS      float64 // Zipf exponent (>1); larger = more skew
	Task       Task    // label model
	NoiseStd   float64 // label noise (pre-threshold for classification)
	WeightNNZ  int     // nonzeros in the ground-truth weight vector (0 = Dim/10)
	BinaryVals bool    // feature values fixed to 1 (CTR-style one-hot) vs normal
	Seed       int64
}

// Generate materializes the synthetic dataset described by cfg.
// Generation is deterministic given cfg, at any GOMAXPROCS. An instance
// draws up to 2·AvgNNZ−1 distinct keys from the Dim the Zipf range holds,
// so a config with 2·AvgNNZ−1 > Dim is an error, as is a ZipfS no raw
// value of the stream is sure to end a draw of (see zipfSentinel).
//
// The draws read one seeded stream in order, as rand.Zipf and rand.Rand
// calls would. One pool of GOMAXPROCS workers works out each Zipf pass's
// outcome ahead of them (draws.go) and finishes each instance behind them
// (its keys sorted, its margin summed and labelled). Every goroutine has
// returned when Generate does.
//
// Besides the instances, Generate holds 8·Dim + Dim/8 transient bytes (the
// ground-truth weight of every key and one bit per key, which marks first
// the weights drawn and then the keys the current instance holds), a
// 256 KiB cell table and at most 4 MiB of the stream's lookahead.
func Generate(cfg SyntheticConfig) (*Dataset, error) {
	if cfg.N <= 0 || cfg.Dim == 0 || cfg.AvgNNZ <= 0 {
		return nil, fmt.Errorf("dataset: invalid config N=%d Dim=%d AvgNNZ=%d",
			cfg.N, cfg.Dim, cfg.AvgNNZ)
	}
	if uint64(cfg.AvgNNZ) > cfg.Dim-cfg.Dim/2 {
		return nil, fmt.Errorf("dataset: AvgNNZ=%d draws up to 2·AvgNNZ−1 distinct keys an instance, more than Dim=%d holds",
			cfg.AvgNNZ, cfg.Dim)
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	draws, err := startDraws(cfg.Seed, cfg.ZipfS, cfg.Dim-1)
	if err != nil {
		return nil, err
	}
	defer draws.close()
	rng := rand.New(draws)

	// Ground-truth sparse weight vector: draw keys until wNNZ distinct ones
	// hold a weight. A repeated key takes a fresh weight, drawn after it.
	wNNZ := cfg.WeightNNZ
	if wNNZ <= 0 {
		wNNZ = int(cfg.Dim / 10)
		if wNNZ < 1 {
			wNNZ = 1
		}
	}
	truth := make([]float64, cfg.Dim)
	marked := make([]uint64, (cfg.Dim+63)/64)
	for distinct := 0; distinct < wNNZ && uint64(distinct) < cfg.Dim; {
		k := draws.key()
		if marked[k/64]&(1<<(k%64)) == 0 {
			marked[k/64] |= 1 << (k % 64)
			distinct++
		}
		truth[k] = rng.NormFloat64()
	}
	clear(marked)

	// The draws leave each instance's keys in draw order, its values in
	// the order drawn and its label noise in Label; the pool sorts, sums
	// and labels runs of finishBatch instances behind them, all before the
	// deferred close returns. A run's keys and values are drawn back to
	// back into keys and vals, reused run after run, then copied into one
	// slab of each, exactly the run's size, that the run's instances slice.
	d := &Dataset{Dim: cfg.Dim, Instances: make([]Instance, cfg.N)}
	const finishBatch = 256
	var (
		keys []uint64
		vals []float64
		nnzs = make([]int, 0, finishBatch)
	)
	for i := 0; i < cfg.N; i++ {
		// Per-instance nonzero count: Poisson-ish around AvgNNZ via a
		// geometric mixture, at least 1.
		nnz := 1 + rng.Intn(2*cfg.AvgNNZ-1)
		start := len(keys)
		for len(keys)-start < nnz {
			k := draws.key()
			if marked[k/64]&(1<<(k%64)) != 0 {
				continue
			}
			marked[k/64] |= 1 << (k % 64)
			keys = append(keys, k)
		}
		for _, k := range keys[start:] {
			marked[k/64] &^= 1 << (k % 64)
		}
		for range nnz {
			v := 1.0
			if !cfg.BinaryVals {
				v = rng.NormFloat64()
			}
			vals = append(vals, v)
		}
		nnzs = append(nnzs, nnz)
		d.Instances[i].Label = rng.NormFloat64()
		if (i+1)%finishBatch == 0 || i+1 == cfg.N {
			run := d.Instances[i/finishBatch*finishBatch : i+1]
			keySlab, valSlab := slices.Clone(keys), slices.Clone(vals)
			off := 0
			for j, n := range nnzs {
				run[j].Keys, run[j].Values = keySlab[off:off+n:off+n], valSlab[off:off+n:off+n]
				off += n
			}
			keys, vals, nnzs = keys[:0], vals[:0], nnzs[:0]
			draws.tasks <- func(*zipfJudge) { finish(run, truth, cfg) }
		}
	}
	return d, nil
}

// finish completes instances the draws left in draw order: the keys
// sorted, the j-th value drawn kept at the j-th sorted key, the margin
// Σ truth[key]·value summed in key order plus the noise held in Label
// times NoiseStd, and the label made from the margin.
func finish(run []Instance, truth []float64, cfg SyntheticConfig) {
	for i := range run {
		in := &run[i]
		slices.Sort(in.Keys)
		var margin float64
		for j, k := range in.Keys {
			margin += truth[k] * in.Values[j]
		}
		margin += in.Label * cfg.NoiseStd
		label := margin
		if cfg.Task == Classification {
			if margin >= 0 {
				label = 1
			} else {
				label = -1
			}
		}
		in.Label = label
	}
}

// The named presets below are laptop-scale stand-ins for the paper's
// datasets (Table 1), preserving each dataset's relative character:
// KDD10 is the small/sparse lab dataset, KDD12 is larger and sparser,
// CTR is the densest (smaller D/d ratio, so compression gains shrink —
// Section 4.3.2).

// mustGenerate wraps Generate for the preset dataset constructors below,
// whose literal configs are valid by construction.
func mustGenerate(cfg SyntheticConfig) *Dataset {
	d, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// KDD10Like returns a KDD CUP 2010-like classification dataset.
func KDD10Like(seed int64) *Dataset {
	return mustGenerate(SyntheticConfig{
		N: 4000, Dim: 25000, AvgNNZ: 30, ZipfS: 1.3,
		Task: Classification, NoiseStd: 0.5, BinaryVals: true, Seed: seed,
	})
}

// KDD12Like returns a KDD CUP 2012-like classification dataset: larger and
// sparser than KDD10Like.
func KDD12Like(seed int64) *Dataset {
	return mustGenerate(SyntheticConfig{
		N: 8000, Dim: 50000, AvgNNZ: 25, ZipfS: 1.25,
		Task: Classification, NoiseStd: 0.5, BinaryVals: true, Seed: seed,
	})
}

// CTRLike returns a Tencent-CTR-like dataset: denser instances over a
// comparatively smaller feature space, where the paper's speedups shrink.
func CTRLike(seed int64) *Dataset {
	return mustGenerate(SyntheticConfig{
		N: 6000, Dim: 15000, AvgNNZ: 80, ZipfS: 1.2,
		Task: Classification, NoiseStd: 0.8, BinaryVals: true, Seed: seed,
	})
}

// Preset returns the generator of the dataset a command-line flag or a job
// spec names kdd10, kdd12 or ctr, or nil for any other name.
func Preset(name string) func(seed int64) *Dataset {
	switch name {
	case "kdd10":
		return KDD10Like
	case "kdd12":
		return KDD12Like
	case "ctr":
		return CTRLike
	}
	return nil
}

// RegressionLike returns a sparse regression dataset for the Linear model.
func RegressionLike(seed int64, n int, dim uint64) *Dataset {
	return mustGenerate(SyntheticConfig{
		N: n, Dim: dim, AvgNNZ: 30, ZipfS: 1.3,
		Task: Regression, NoiseStd: 0.1, Seed: seed,
	})
}

// MNISTLike generates a dense 10-class digit-like image dataset of
// side×side images (the paper's Appendix B.3 uses 20×20 MNIST crops).
// Each class has a random smooth prototype; instances are the prototype
// plus pixel noise. Labels are class indexes 0..9.
func MNISTLike(seed int64, n, side int) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	dim := side * side
	const classes = 10
	// All classes share a common "stroke" background so they overlap like
	// real digits; each class adds only a couple of small distinguishing
	// bumps. Without the shared base the task is trivially separable and
	// every training curve flattens immediately.
	addBumps := func(p []float64, n int, amp float64) {
		for b := 0; b < n; b++ {
			cx, cy := rng.Float64()*float64(side), rng.Float64()*float64(side)
			a := amp * (0.5 + rng.Float64())
			sigma := 1.5 + rng.Float64()*2
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					dx, dy := float64(x)-cx, float64(y)-cy
					p[y*side+x] += a * math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
				}
			}
		}
	}
	base := make([]float64, dim)
	addBumps(base, 4, 1.0)
	protos := make([][]float64, classes)
	for c := range protos {
		p := append([]float64(nil), base...)
		addBumps(p, 2, 0.6)
		protos[c] = p
	}
	d := &Dataset{Dim: uint64(dim), Instances: make([]Instance, n)}
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		keys := make([]uint64, dim)
		vals := make([]float64, dim)
		for j := 0; j < dim; j++ {
			keys[j] = uint64(j)
			vals[j] = protos[c][j] + rng.NormFloat64()*0.5
		}
		d.Instances[i] = Instance{Keys: keys, Values: vals, Label: float64(c)}
	}
	return d
}
