package trainer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// numericGrad estimates dLoss/dparam by central differences.
func numericGrad(param *float32, loss func() float64) float64 {
	const eps = 1e-3
	orig := *param
	*param = orig + eps
	lp := loss()
	*param = orig - eps
	lm := loss()
	*param = orig
	return (lp - lm) / (2 * eps)
}

// scalarLoss squares-and-sums the output so dOut = 2·out.
func scalarLoss(out tensor.Dense) float64 {
	var s float64
	for _, v := range out.Data {
		s += float64(v) * float64(v)
	}
	return s
}

func lossGrad(out tensor.Dense) tensor.Dense {
	g := tensor.NewDense(out.RowsN, out.Cols)
	for i, v := range out.Data {
		g.Data[i] = 2 * v
	}
	return g
}

func TestLinearForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(2, 2, rng)
	l.W = []float32{1, 2, 3, 4} // row 0: [1,2], row 1: [3,4]
	l.B = []float32{10, 20}
	x := tensor.NewDense(1, 2)
	x.Data[0], x.Data[1] = 1, 1
	y := l.Forward(x)
	if y.At(0, 0) != 13 || y.At(0, 1) != 27 {
		t.Fatalf("forward = %v want [13 27]", y.Data)
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(3, 2, rng)
	x := tensor.NewDense(4, 3)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}

	loss := func() float64 { return scalarLoss(l.Forward(x)) }

	out := l.Forward(x)
	dX := l.Backward(lossGrad(out))

	// Weight gradients.
	for _, idx := range []int{0, 3, 5} {
		want := numericGrad(&l.W[idx], loss)
		got := float64(l.dW[idx])
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("dW[%d] = %v want %v", idx, got, want)
		}
	}
	// Bias gradients.
	want := numericGrad(&l.B[1], loss)
	if got := float64(l.dB[1]); math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
		t.Fatalf("dB[1] = %v want %v", got, want)
	}
	// Input gradients.
	wantX := numericGrad(&x.Data[2], loss)
	if got := float64(dX.Data[2]); math.Abs(got-wantX) > 1e-2*math.Max(1, math.Abs(wantX)) {
		t.Fatalf("dX[2] = %v want %v", got, wantX)
	}
}

func TestLinearStep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLinear(2, 1, rng)
	l.dW[0] = 1
	l.dB[0] = 2
	w0, b0 := l.W[0], l.B[0]
	l.Apply(SGD, 0.1)
	if math.Abs(float64(l.W[0]-(w0-0.1))) > 1e-6 {
		t.Fatalf("W update wrong: %v", l.W[0])
	}
	if math.Abs(float64(l.B[0]-(b0-0.2))) > 1e-6 {
		t.Fatalf("B update wrong: %v", l.B[0])
	}
	if l.dW[0] != 0 || l.dB[0] != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestMLPGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, err := NewMLP([]int{3, 5, 2}, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewDense(3, 3)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	loss := func() float64 { return scalarLoss(m.Forward(x)) }

	out := m.Forward(x)
	dX := m.Backward(lossGrad(out))

	for li, l := range m.Layers {
		idx := li // probe one weight per layer
		want := numericGrad(&l.W[idx], loss)
		got := float64(l.dW[idx])
		if math.Abs(got-want) > 2e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("layer %d dW[%d] = %v want %v", li, idx, got, want)
		}
	}

	wantX := numericGrad(&x.Data[0], loss)
	if got := float64(dX.Data[0]); math.Abs(got-wantX) > 2e-2*math.Max(1, math.Abs(wantX)) {
		t.Fatalf("dX[0] = %v want %v", got, wantX)
	}
}

func TestMLPFinalReLUNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, _ := NewMLP([]int{4, 4}, true, rng)
	x := tensor.NewDense(8, 4)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*4 - 2
	}
	out := m.Forward(x)
	for _, v := range out.Data {
		if v < 0 {
			t.Fatalf("final ReLU output negative: %v", v)
		}
	}
}

func TestMLPInvalidSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := NewMLP([]int{3}, false, rng); err == nil {
		t.Fatal("expected error for single size")
	}
	if _, err := NewMLP([]int{3, 0}, false, rng); err == nil {
		t.Fatal("expected error for zero width")
	}
}

func TestMLPParamAndFLOPs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, _ := NewMLP([]int{10, 20, 5}, false, rng)
	wantParams := int64(10*20 + 20 + 20*5 + 5)
	if got := m.ParamCount(); got != wantParams {
		t.Fatalf("ParamCount = %d want %d", got, wantParams)
	}
	wantFLOPs := float64(2 * 32 * (10*20 + 20*5))
	if got := m.ForwardFLOPs(32); got != wantFLOPs {
		t.Fatalf("ForwardFLOPs = %v want %v", got, wantFLOPs)
	}
}

// TestMLPTrainsOnToyProblem verifies gradient descent actually learns:
// separate two Gaussian blobs with a small MLP and BCE loss.
func TestMLPTrainsOnToyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m, _ := NewMLP([]int{2, 8, 1}, false, rng)

	n := 64
	x := tensor.NewDense(n, 2)
	labels := make([]float32, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x.Set(i, 0, rng.Float32()+1)
			x.Set(i, 1, rng.Float32()+1)
			labels[i] = 1
		} else {
			x.Set(i, 0, -rng.Float32()-1)
			x.Set(i, 1, -rng.Float32()-1)
		}
	}

	var first, last float64
	for it := 0; it < 200; it++ {
		out := m.Forward(x)
		loss, grad, err := BCEWithLogits(out, labels)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = loss
		}
		last = loss
		m.Backward(grad)
		m.Apply(SGD, 0.5)
	}
	if last > first/4 {
		t.Fatalf("training did not converge: first %.4f last %.4f", first, last)
	}
}
