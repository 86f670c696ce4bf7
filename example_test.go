package sketchml_test

import (
	"fmt"
	"time"

	"sketchml"
)

// ExampleNewCompressor demonstrates the core flow: build a sparse gradient,
// compress it with SketchML, and decode it back with exact keys and
// sign-preserving values.
func ExampleNewCompressor() {
	grad := sketchml.GradientFromMap(1_000_000, map[uint64]float64{
		42:      0.5,
		1_000:   -0.25,
		999_999: 0.125,
	})
	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		panic(err)
	}
	msg, err := comp.Encode(grad)
	if err != nil {
		panic(err)
	}
	back, err := comp.Decode(msg)
	if err != nil {
		panic(err)
	}
	fmt.Println("keys:", back.Keys)
	fmt.Println("signs preserved:",
		back.Values[0] >= 0, back.Values[1] <= 0, back.Values[2] >= 0)
	// Output:
	// keys: [42 1000 999999]
	// signs preserved: true true true
}

// ExampleTrain runs two epochs of compressed distributed logistic
// regression on a synthetic dataset.
func ExampleTrain() {
	full := sketchml.KDD10Like(1)
	train, test := full.Split(0.75, 1)
	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		panic(err)
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
		panic(err)
	}
	fmt.Println("epochs:", len(res.Epochs))
	fmt.Println("learned something:", res.FinalAccuracy > 0.7)
	// Output:
	// epochs: 2
	// learned something: true
}

// ExampleRawCodec contrasts message sizes: the uncompressed baseline versus
// SketchML on the same gradient.
func ExampleRawCodec() {
	grad := sketchml.GradientFromMap(100_000, func() map[uint64]float64 {
		m := map[uint64]float64{}
		for k := uint64(0); k < 5_000; k++ {
			v := 0.001 * float64(k%17+1)
			if k%2 == 0 {
				v = -v
			}
			m[k*19] = v
		}
		return m
	}())
	raw, err := (&sketchml.RawCodec{}).Encode(grad)
	if err != nil {
		panic(err)
	}
	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		panic(err)
	}
	msg, err := comp.Encode(grad)
	if err != nil {
		panic(err)
	}
	fmt.Println("sketchml is smaller:", len(msg) < len(raw)/3)
	// Output:
	// sketchml is smaller: true
}

// ExampleTrain_distributed is README's distributed-training snippet. It has
// no output check: go test compiles it, so a TrainConfig field the README
// names cannot disappear unnoticed, but does not run it.
func ExampleTrain_distributed() {
	comp, _ := sketchml.NewCompressor(sketchml.DefaultOptions())
	full := sketchml.KDD12Like(1)
	train, test := full.Split(0.75, 1)
	res, _ := sketchml.Train(sketchml.TrainConfig{
		Trainable:    sketchml.LogisticRegression(),
		CodecFactory: func() sketchml.Codec { return comp }, // called once per party; one instance may serve every party
		Workers:      10,
		Epochs:       5,
	}, train, test)
	fmt.Println(res.FinalLoss, res.AvgUpBytesPerRound())
}

// ExampleTrain_roundDeadline is README's fault-tolerance snippet, compiled
// but not run like ExampleTrain_distributed: with a round deadline a round
// proceeds once half the workers' gradients are in, and a worker that
// misses 8 consecutive rounds aborts the run.
func ExampleTrain_roundDeadline() {
	comp, _ := sketchml.NewCompressor(sketchml.DefaultOptions())
	train, test := sketchml.KDD12Like(1).Split(0.75, 1)
	res, _ := sketchml.Train(sketchml.TrainConfig{
		Trainable:     sketchml.LogisticRegression(),
		CodecFactory:  func() sketchml.Codec { return comp },
		Workers:       10,
		Epochs:        5,
		RoundDeadline: 250 * time.Millisecond, // wait this long per round, then proceed
	}, train, test)
	fmt.Println(res.FinalLoss, res.Epochs[0].DegradedRounds)
}
