// Package nn implements the multilayer perceptron used by the paper's
// Appendix B.3 experiment: an input layer, fully connected hidden layers
// with ReLU activations, and a softmax cross-entropy output over 10
// classes. Parameters live in one flat vector so that gradients can be
// exchanged (and compressed) exactly like the linear models' sparse
// gradients — for dense NN gradients the paper notes value compression
// still applies while key compression is redundant.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"sketchml/internal/dataset"
	"sketchml/internal/gradient"
)

// MLP is a feed-forward network with ReLU hidden units and a softmax
// cross-entropy output, trained as a model.Trainable: it holds the shape and
// the init seed only, every replica's parameters live in the caller's theta
// (weights then biases per layer, layers in order), and the trainer drives
// it like any other model. Labels are class indexes and inputs are dense
// vectors of the first layer's width; BatchGradient and Evaluate index by
// both unchecked, so run CheckDataset once on every dataset that came from
// outside the program.
type MLP struct {
	sizes []int // layer widths, input first, classes last
	// offsets[l] is the index of layer l's weight block; biases follow the
	// weights within each block.
	offsets []int
	dim     int // total parameters
	seed    int64
}

// New describes an MLP with the given layer sizes (at least input and
// output) whose replicas InitTheta fills with He-initialized weights drawn
// deterministically from seed.
func New(sizes []int, seed int64) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: need at least 2 layers, got %d", len(sizes))
	}
	for i, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("nn: layer %d has size %d", i, s)
		}
	}
	m := &MLP{sizes: append([]int(nil), sizes...), offsets: make([]int, len(sizes)-1), seed: seed}
	for l := range m.offsets {
		m.offsets[l] = m.dim
		m.dim += sizes[l]*sizes[l+1] + sizes[l+1]
	}
	return m, nil
}

// Name implements model.Trainable: "MLP-400-64-10".
func (m *MLP) Name() string {
	name := "MLP"
	for _, s := range m.sizes {
		name += fmt.Sprintf("-%d", s)
	}
	return name
}

// ParamDim implements model.Trainable. The parameter count is fixed by the
// layer sizes; that the feature space matches the input layer is
// CheckDataset's to say.
func (m *MLP) ParamDim(uint64) uint64 { return uint64(m.dim) }

// InitTheta fills a replica's parameters: He-initialized weights (the same
// draw for every replica of one seed), zero biases.
func (m *MLP) InitTheta(theta []float64) {
	rng := rand.New(rand.NewSource(m.seed))
	for l := range m.offsets {
		scale := math.Sqrt(2.0 / float64(m.sizes[l]))
		w := m.weights(theta, l)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		b := m.biases(theta, l)
		for i := range b {
			b[i] = 0
		}
	}
}

// CheckDataset reports whether d can train or evaluate this network: its
// feature space is the input layer, every key lies inside it and every label
// is a class index.
func (m *MLP) CheckDataset(d *dataset.Dataset) error {
	width, classes := m.sizes[0], m.sizes[len(m.sizes)-1]
	if d.Dim != uint64(width) {
		return fmt.Errorf("nn: dataset has %d features, the input layer %d", d.Dim, width)
	}
	for i := range d.Instances {
		in := &d.Instances[i]
		// Written so that a NaN label fails too.
		if !(in.Label >= 0 && in.Label < float64(classes)) {
			return fmt.Errorf("nn: instance %d: label %v out of [0, %d)", i, in.Label, classes)
		}
		for _, k := range in.Keys {
			if k >= uint64(width) {
				return fmt.Errorf("nn: instance %d: key %d outside the %d inputs", i, k, width)
			}
		}
	}
	return nil
}

// weights returns layer l's weight block of theta (out×in, row-major by
// output unit).
func (m *MLP) weights(theta []float64, l int) []float64 {
	in, out := m.sizes[l], m.sizes[l+1]
	start := m.offsets[l]
	return theta[start : start+in*out]
}

// biases returns layer l's bias block of theta.
func (m *MLP) biases(theta []float64, l int) []float64 {
	in, out := m.sizes[l], m.sizes[l+1]
	start := m.offsets[l] + in*out
	return theta[start : start+out]
}

// forward runs the network on x, returning every layer's post-activation
// output (activations[0] == x) and the pre-softmax logits.
func (m *MLP) forward(theta, x []float64) (activations [][]float64, logits []float64) {
	activations = make([][]float64, len(m.sizes))
	activations[0] = x
	cur := x
	for l := 0; l < len(m.sizes)-1; l++ {
		in, out := m.sizes[l], m.sizes[l+1]
		w, b := m.weights(theta, l), m.biases(theta, l)
		next := make([]float64, out)
		for o := 0; o < out; o++ {
			s := b[o]
			row := w[o*in : (o+1)*in]
			for i, v := range cur {
				s += row[i] * v
			}
			next[o] = s
		}
		if l < len(m.sizes)-2 { // hidden layer: ReLU
			for o := range next {
				if next[o] < 0 {
					next[o] = 0
				}
			}
		}
		activations[l+1] = next
		cur = next
	}
	return activations, activations[len(activations)-1]
}

// softmax computes stable softmax probabilities in place over logits.
func softmax(logits []float64) []float64 {
	max := math.Inf(-1)
	for _, v := range logits {
		max = math.Max(max, v)
	}
	probs := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		probs[i] = math.Exp(v - max)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// denseInput materializes an instance as a dense input vector.
func (m *MLP) denseInput(in *dataset.Instance) []float64 {
	x := make([]float64, m.sizes[0])
	for i, k := range in.Keys {
		x[k] = in.Values[i]
	}
	return x
}

// BatchGradient implements model.Trainable: backpropagation over the batch,
// then the dense mean gradient (plus lambda·theta) as a sparse message — for
// dense NN gradients every key is present, so it is the codec's value path
// that works. The loss is the mean cross-entropy, unregularized.
func (m *MLP) BatchGradient(theta []float64, batch []*dataset.Instance, lambda float64) (*gradient.Sparse, float64) {
	if len(batch) == 0 {
		return gradient.NewSparse(uint64(m.dim), 0), 0
	}
	grad := make([]float64, m.dim)
	var lossSum float64
	nLayers := len(m.sizes) - 1
	for _, in := range batch {
		cls := int(in.Label)
		acts, logits := m.forward(theta, m.denseInput(in))
		probs := softmax(logits)
		lossSum += -math.Log(math.Max(probs[cls], 1e-300))

		// Backprop. delta starts as dLoss/dlogits = probs - onehot.
		delta := probs
		delta[cls]--
		for l := nLayers - 1; l >= 0; l-- {
			inW, outW := m.sizes[l], m.sizes[l+1]
			w := m.weights(theta, l)
			gw, gb := m.weights(grad, l), m.biases(grad, l)
			prev := acts[l]
			for o := 0; o < outW; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				row := gw[o*inW : (o+1)*inW]
				for i, a := range prev {
					row[i] += d * a
				}
				gb[o] += d
			}
			if l > 0 {
				// Propagate through weights and the previous ReLU.
				next := make([]float64, inW)
				for o := 0; o < outW; o++ {
					d := delta[o]
					if d == 0 {
						continue
					}
					row := w[o*inW : (o+1)*inW]
					for i := range next {
						next[i] += d * row[i]
					}
				}
				for i := range next {
					if acts[l][i] <= 0 { // ReLU derivative
						next[i] = 0
					}
				}
				delta = next
			}
		}
	}
	inv := 1.0 / float64(len(batch))
	for i := range grad {
		grad[i] = grad[i]*inv + lambda*theta[i]
	}
	return gradient.FromDense(grad, 0), lossSum * inv
}

// Evaluate implements model.Trainable: the mean cross-entropy and the top-1
// accuracy of theta on d.
func (m *MLP) Evaluate(theta []float64, d *dataset.Dataset) (loss, accuracy float64) {
	if d.N() == 0 {
		return 0, 0
	}
	correct := 0
	for i := range d.Instances {
		in := &d.Instances[i]
		cls := int(in.Label)
		_, logits := m.forward(theta, m.denseInput(in))
		best := 0
		for c, v := range logits {
			if v > logits[best] {
				best = c
			}
		}
		if best == cls {
			correct++
		}
		loss += -math.Log(math.Max(softmax(logits)[cls], 1e-300))
	}
	return loss / float64(d.N()), float64(correct) / float64(d.N())
}
