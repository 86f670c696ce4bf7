// Distributed logistic regression over real loopback TCP: workers exchange
// SketchML-compressed gradients with a driver exactly as the paper's
// Spark executors do, and the run is compared against the uncompressed
// baseline.
package main

import (
	"fmt"
	"log"

	"sketchml"
)

func main() {
	full := sketchml.KDD12Like(1)
	train, test := full.Split(0.75, 1)
	fmt.Printf("KDD12-like: %d train / %d test instances, D=%d\n\n",
		train.N(), test.N(), full.Dim)

	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range []sketchml.Codec{comp, &sketchml.RawCodec{}} {
		res, err := sketchml.Train(sketchml.TrainConfig{
			Trainable:    sketchml.LogisticRegression(),
			CodecFactory: func() sketchml.Codec { return c },
			Workers:      4,
			Epochs:       3,
			Lambda:       0.01,
			Seed:         1,
			UseTCP:       true, // every gradient really crosses a TCP socket
		}, train, test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("codec %-10s", c.Name())
		fmt.Printf(" final loss %.4f, accuracy %.3f\n", res.FinalLoss, res.FinalAccuracy)
		for _, e := range res.Epochs {
			fmt.Printf("  epoch %d: %6.1f KB/round up, %6.3fs wall over loopback\n",
				e.Epoch, float64(e.UpBytes)/float64(e.Rounds)/1024, e.WallTime.Seconds())
		}
		fmt.Println()
	}
	fmt.Println("Same convergence, a fraction of the traffic — the SketchML result.")
}
