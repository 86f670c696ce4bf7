// MLP on MNIST-like images with compressed gradient exchange — the paper's
// Appendix B.3 experiment as a runnable demo. Dense neural-net gradients
// exercise SketchML's value path (quantile buckets + MinMaxSketch) while
// key compression is moot. The network trains through the same distributed
// loop as the linear models: four workers, a driver, one codec in between.
package main

import (
	"fmt"
	"log"

	"sketchml"
	"sketchml/internal/nn"
)

func main() {
	full := sketchml.MNISTLike(1, 1200, 20) // 20x20 synthetic digit images
	net, err := nn.New([]int{400, 64, 10}, 5)
	if err != nil {
		log.Fatal(err)
	}
	// The network indexes by label and pixel unchecked: a dataset parsed from
	// a file goes through the same check.
	if err := net.CheckDataset(full); err != nil {
		log.Fatal(err)
	}
	train, test := full.Split(0.8, 1)
	fmt.Printf("MNIST-like: %d train / %d test images, 400 pixels each\n\n", train.N(), test.N())

	comp, err := sketchml.NewCompressor(sketchml.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range []sketchml.Codec{comp, &sketchml.RawCodec{}} {
		res, err := sketchml.Train(sketchml.TrainConfig{
			Trainable:     net,
			CodecFactory:  func() sketchml.Codec { return c },
			Optimizer:     func(dim uint64) sketchml.Optimizer { return sketchml.NewAdam(0.01, dim) },
			Workers:       4,
			BatchFraction: 60.5 / float64(train.N()), // the paper's batch of 60 images
			Epochs:        15,
			Seed:          1,
		}, train, test)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s test loss %.4f, accuracy %.3f, %6.1f KB/round gradient traffic per worker\n",
			c.Name(), res.FinalLoss, res.FinalAccuracy, res.AvgUpBytesPerRound()/4/1024)
	}
	fmt.Println("\nCompressed training reaches comparable accuracy with far less traffic.")
}
