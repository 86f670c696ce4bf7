package optim

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sketchml/internal/gradient"
)

func grad(dim uint64, kv map[uint64]float64) *gradient.Sparse {
	return gradient.FromMap(dim, kv)
}

func TestSGDStep(t *testing.T) {
	theta := []float64{1, 2, 3}
	s := NewSGD(0.5)
	if err := s.Step(theta, grad(3, map[uint64]float64{0: 2, 2: -4})); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 5}
	for i := range want {
		if theta[i] != want[i] {
			t.Errorf("theta[%d] = %v, want %v", i, theta[i], want[i])
		}
	}
}

func TestSGDDimMismatch(t *testing.T) {
	s := NewSGD(0.1)
	if err := s.Step(make([]float64, 3), grad(4, map[uint64]float64{0: 1})); err == nil {
		t.Error("dim mismatch accepted")
	}
}

func TestAdamMatchesReference(t *testing.T) {
	// One dense dimension, several steps: compare to a hand-rolled Adam.
	const lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
	a := NewAdam(lr, 1)
	theta := []float64{0.5}
	refTheta := 0.5
	var m, v float64
	grads := []float64{1.0, -0.5, 0.25, 2.0, -1.0}
	for step, gv := range grads {
		if err := a.Step(theta, grad(1, map[uint64]float64{0: gv})); err != nil {
			t.Fatal(err)
		}
		tt := float64(step + 1)
		m = b1*m + (1-b1)*gv
		v = b2*v + (1-b2)*gv*gv
		mHat := m / (1 - math.Pow(b1, tt))
		vHat := v / (1 - math.Pow(b2, tt))
		refTheta -= lr * mHat / (math.Sqrt(vHat) + eps)
		if math.Abs(theta[0]-refTheta) > 1e-12 {
			t.Fatalf("step %d: theta = %v, reference %v", step, theta[0], refTheta)
		}
	}
	if a.Steps() != len(grads) {
		t.Errorf("Steps = %d, want %d", a.Steps(), len(grads))
	}
}

func TestAdamSparseOnlyTouchesActiveDims(t *testing.T) {
	a := NewAdam(0.1, 4)
	theta := []float64{1, 1, 1, 1}
	if err := a.Step(theta, grad(4, map[uint64]float64{1: 5})); err != nil {
		t.Fatal(err)
	}
	if theta[0] != 1 || theta[2] != 1 || theta[3] != 1 {
		t.Error("inactive dims moved")
	}
	if theta[1] == 1 {
		t.Error("active dim did not move")
	}
}

func TestAdamAdaptsPerDimension(t *testing.T) {
	// Adam's defining property (and why the paper uses it to compensate
	// MinMaxSketch decay): after many steps, a dimension fed consistently
	// small gradients moves nearly as fast as one fed large gradients,
	// because the step is m̂/√v̂ ≈ sign.
	a := NewAdam(0.01, 2)
	theta := []float64{0, 0}
	for i := 0; i < 200; i++ {
		if err := a.Step(theta, grad(2, map[uint64]float64{0: 1.0, 1: 0.001})); err != nil {
			t.Fatal(err)
		}
	}
	ratio := theta[1] / theta[0]
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("small-gradient dim moved %.3fx of large-gradient dim, want ~1x", ratio)
	}
	sgd := NewSGD(0.01)
	th2 := []float64{0, 0}
	for i := 0; i < 200; i++ {
		if err := sgd.Step(th2, grad(2, map[uint64]float64{0: 1.0, 1: 0.001})); err != nil {
			t.Fatal(err)
		}
	}
	if r := th2[1] / th2[0]; r > 0.01 {
		t.Errorf("SGD should not adapt: ratio %v", r)
	}
}

func TestAdamReset(t *testing.T) {
	a := NewAdam(0.1, 2)
	theta := []float64{0, 0}
	_ = a.Step(theta, grad(2, map[uint64]float64{0: 1}))
	a.Reset()
	if a.Steps() != 0 {
		t.Error("Reset did not clear step count")
	}
	// After reset, behaviour matches a fresh optimizer.
	fresh := NewAdam(0.1, 2)
	t1, t2 := []float64{0, 0}, []float64{0, 0}
	g := grad(2, map[uint64]float64{1: -2})
	_ = a.Step(t1, g)
	_ = fresh.Step(t2, g)
	if t1[1] != t2[1] {
		t.Errorf("reset state differs from fresh: %v vs %v", t1[1], t2[1])
	}
}

func TestAdamDimMismatch(t *testing.T) {
	a := NewAdam(0.1, 3)
	if err := a.Step(make([]float64, 3), grad(5, map[uint64]float64{0: 1})); err == nil {
		t.Error("gradient dim mismatch accepted")
	}
	if err := a.Step(make([]float64, 5), grad(5, map[uint64]float64{0: 1})); err == nil {
		t.Error("state dim mismatch accepted")
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = (x-3)^2 with exact gradients.
	a := NewAdam(0.1, 1)
	theta := []float64{-5}
	for i := 0; i < 2000; i++ {
		g := grad(1, map[uint64]float64{0: 2 * (theta[0] - 3)})
		if g.NNZ() == 0 { // converged exactly
			break
		}
		if err := a.Step(theta, g); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(theta[0]-3) > 0.01 {
		t.Errorf("Adam converged to %v, want 3", theta[0])
	}
}

func TestGradHelper(t *testing.T) {
	g := grad(5, map[uint64]float64{2: 1.5})
	if g.Dim != 5 || g.Get(2) != 1.5 {
		t.Error("test helper broken")
	}
}

// BenchmarkAdamStep is one replica's step at the end-to-end benchmark's
// shape: a sorted aggregate of 1.2·10⁵ keys over 2·10⁶ dimensions. ns/nnz is
// per key of the aggregate, the unit of the benchmark's
// optim.adam_step_ns_per_nnz.
func BenchmarkAdamStep(b *testing.B) {
	const dim, nnz = 2_000_000, 120_000
	rng := rand.New(rand.NewSource(1))
	a := NewAdam(0.1, dim)
	theta := make([]float64, dim)
	g := &gradient.Sparse{Dim: dim}
	for _, k := range rng.Perm(dim)[:nnz] {
		g.Keys = append(g.Keys, uint64(k))
	}
	slices.Sort(g.Keys)
	for range g.Keys {
		g.Values = append(g.Values, rng.NormFloat64()*1e-2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Step(theta, g); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nnz, "ns/nnz")
}

// splitAdam is Adam as it stood with its moments in two Dim-long slices:
// the reference the interleaved layout must match bit for bit, in every θ
// and in the bytes of its saved state.
type splitAdam struct {
	lr, b1, b2, eps float64
	m, v            []float64
	t               int
}

func (a *splitAdam) step(theta []float64, g *gradient.Sparse) {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	for i, k := range g.Keys {
		gv := g.Values[i]
		a.m[k] = a.b1*a.m[k] + (1-a.b1)*gv
		a.v[k] = a.b2*a.v[k] + (1-a.b2)*gv*gv
		mHat := a.m[k] / c1
		vHat := a.v[k] / c2
		theta[k] -= a.lr * mHat / (math.Sqrt(vHat) + a.eps)
	}
}

func (a *splitAdam) marshalState() []byte {
	out := make([]byte, 0, 16+16*len(a.m))
	out = binary.LittleEndian.AppendUint64(out, uint64(a.t))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(a.m)))
	for _, vs := range [][]float64{a.m, a.v} {
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// TestAdamMatchesSplitLayout runs 50 steps over keys that repeat and keys
// that are new, through Adam and through the split-array reference: θ is
// equal bit for bit after every step, the saved state is the reference's
// bytes (all of m, then all of v), and an optimizer restored from the
// reference's blob mid-run carries on bit for bit — a checkpoint written
// before the moments were interleaved resumes exactly.
func TestAdamMatchesSplitLayout(t *testing.T) {
	const dim, steps = 5000, 50
	rng := rand.New(rand.NewSource(20))
	a := NewAdam(0.1, dim)
	ref := &splitAdam{lr: 0.1, b1: 0.9, b2: 0.999, eps: 1e-8, m: make([]float64, dim), v: make([]float64, dim)}
	var resumed *Adam
	theta, refTheta, resumedTheta := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	hot := rng.Perm(dim)[:40] // keys every step touches
	for step := 1; step <= steps; step++ {
		kv := map[uint64]float64{}
		for _, k := range hot {
			kv[uint64(k)] = rng.NormFloat64()
		}
		for i := 0; i < 60; i++ {
			kv[uint64(rng.Intn(dim))] = rng.NormFloat64() * 1e-3
		}
		g := grad(dim, kv)
		ref.step(refTheta, g)
		if err := a.Step(theta, g); err != nil {
			t.Fatal(err)
		}
		if resumed != nil {
			if err := resumed.Step(resumedTheta, g); err != nil {
				t.Fatal(err)
			}
		}
		for k := range theta {
			if math.Float64bits(theta[k]) != math.Float64bits(refTheta[k]) {
				t.Fatalf("step %d: theta[%d] = %v, split layout %v", step, k, theta[k], refTheta[k])
			}
			if resumed != nil && math.Float64bits(resumedTheta[k]) != math.Float64bits(refTheta[k]) {
				t.Fatalf("step %d: resumed theta[%d] = %v, split layout %v", step, k, resumedTheta[k], refTheta[k])
			}
		}
		if !bytes.Equal(a.MarshalState(), ref.marshalState()) {
			t.Fatalf("step %d: saved state differs from the split layout's bytes", step)
		}
		if step == steps/2 {
			resumed = NewAdam(0.1, dim)
			if err := resumed.UnmarshalState(ref.marshalState()); err != nil {
				t.Fatal(err)
			}
			copy(resumedTheta, refTheta)
		}
	}
	if resumed.Steps() != steps || !bytes.Equal(resumed.MarshalState(), ref.marshalState()) {
		t.Fatalf("resumed optimizer ended at step %d with a different state", resumed.Steps())
	}
	blob := ref.marshalState()
	for _, bad := range [][]byte{nil, blob[:15], blob[:len(blob)-1], append(blob[:len(blob):len(blob)], 0)} {
		if err := NewAdam(0.1, dim).UnmarshalState(bad); err == nil {
			t.Errorf("a %d-byte state was accepted", len(bad))
		}
	}
	if err := NewAdam(0.1, dim+1).UnmarshalState(blob); err == nil {
		t.Error("a state for another dim was accepted")
	}
}

// TestAdamMarshalStateReusesBuffer pins MarshalState's buffer contract: two
// calls with no step between them return the same bytes, and a warm call
// writes into the optimizer's buffer without allocating.
func TestAdamMarshalStateReusesBuffer(t *testing.T) {
	const dim = 5000
	a := NewAdam(0.1, dim)
	if err := a.Step(make([]float64, dim), grad(dim, map[uint64]float64{3: 1, 4000: -2})); err != nil {
		t.Fatal(err)
	}
	first := bytes.Clone(a.MarshalState())
	if !bytes.Equal(a.MarshalState(), first) {
		t.Fatal("a second MarshalState returned different bytes")
	}
	if allocs := testing.AllocsPerRun(10, func() { a.MarshalState() }); allocs != 0 {
		t.Errorf("warm MarshalState allocates %v objects/op, want 0", allocs)
	}
}
