package trainer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func randSeq(rng *rand.Rand, n, d int) tensor.Dense {
	x := tensor.NewDense(n, d)
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	return x
}

func TestAttentionForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAttentionBlock(8, rng)
	out, cache := a.Forward(randSeq(rng, 5, 8))
	if len(out) != 8 {
		t.Fatalf("out dim %d want 8", len(out))
	}
	if cache == nil || cache.S.RowsN != 5 || cache.S.Cols != 5 {
		t.Fatal("cache scores wrong shape")
	}
	// Softmax rows sum to 1.
	for i := 0; i < 5; i++ {
		var s float64
		for _, v := range cache.S.Row(i) {
			if v < 0 {
				t.Fatal("negative softmax weight")
			}
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", i, s)
		}
	}
}

func TestAttentionEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAttentionBlock(4, rng)
	out, cache := a.Forward(tensor.NewDense(0, 4))
	if cache != nil {
		t.Fatal("empty sequence should have nil cache")
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("empty sequence should pool to zero")
		}
	}
	// Backward of nil cache is a no-op.
	dX := a.Backward(nil, out)
	if dX.RowsN != 0 {
		t.Fatal("backward of nil cache should be empty")
	}
}

func TestAttentionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAttentionBlock(8, rng)
	x := randSeq(rng, 6, 8)
	out1, _ := a.Forward(x)
	out2, _ := a.Forward(x)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("attention forward not deterministic")
		}
	}
}

func TestAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := 4
	a := NewAttentionBlock(d, rng)
	x := randSeq(rng, 3, d)

	loss := func() float64 {
		out, _ := a.Forward(x)
		var s float64
		for _, v := range out {
			s += float64(v) * float64(v)
		}
		return s
	}

	out, cache := a.Forward(x)
	dOut := make([]float32, d)
	for i, v := range out {
		dOut[i] = 2 * v
	}
	dX := a.Backward(cache, dOut)

	check := func(name string, got float64, param *float32) {
		want := numericGrad(param, loss)
		if math.Abs(got-want) > 3e-2*math.Max(0.1, math.Abs(want)) {
			t.Fatalf("%s = %v want %v", name, got, want)
		}
	}
	check("dWq[1]", float64(a.dWq[1]), &a.Wq[1])
	check("dWk[5]", float64(a.dWk[5]), &a.Wk[5])
	check("dWv[9]", float64(a.dWv[9]), &a.Wv[9])
	check("dX[0]", float64(dX.Data[0]), &x.Data[0])
	check("dX[7]", float64(dX.Data[7]), &x.Data[7])
}

func TestAttentionStepZeroesGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewAttentionBlock(4, rng)
	x := randSeq(rng, 3, 4)
	out, cache := a.Forward(x)
	dOut := make([]float32, 4)
	for i, v := range out {
		dOut[i] = v
	}
	a.Backward(cache, dOut)
	w0 := a.Wq[0]
	a.Apply(SGD, 0.1)
	for i := range a.dWq {
		if a.dWq[i] != 0 || a.dWk[i] != 0 || a.dWv[i] != 0 {
			t.Fatal("Step must zero gradients")
		}
	}
	_ = w0 // weights may or may not move depending on grad; the zeroing is the contract
}

func TestAttentionFLOPsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewAttentionBlock(16, rng)
	if a.FLOPsForSeq(10) >= a.FLOPsForSeq(20) {
		t.Fatal("flops should grow with sequence length")
	}
	if a.ParamCount() != 3*16*16 {
		t.Fatalf("ParamCount = %d", a.ParamCount())
	}
}

// TestAttentionDedupScaledBackward verifies the RecD dedup-compute
// identity used in Model.Backward: running one backward with the summed
// gradient of k duplicate rows equals running k backwards with each
// row's gradient.
func TestAttentionDedupScaledBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := 4
	x := randSeq(rng, 3, d)
	g1 := []float32{0.1, -0.2, 0.3, 0.4}
	g2 := []float32{-0.5, 0.6, 0.7, -0.8}

	// Path A: two separate backwards (baseline: two duplicate rows).
	aA := NewAttentionBlock(d, rand.New(rand.NewSource(8)))
	_, cA := aA.Forward(x)
	aA.Backward(cA, g1)
	_, cA2 := aA.Forward(x)
	aA.Backward(cA2, g2)

	// Path B: one backward with the summed gradient (RecD: one unique row).
	aB := NewAttentionBlock(d, rand.New(rand.NewSource(8)))
	_, cB := aB.Forward(x)
	sum := make([]float32, d)
	for i := range sum {
		sum[i] = g1[i] + g2[i]
	}
	aB.Backward(cB, sum)

	for i := range aA.dWq {
		if math.Abs(float64(aA.dWq[i]-aB.dWq[i])) > 1e-5 {
			t.Fatalf("dWq[%d]: %v vs %v", i, aA.dWq[i], aB.dWq[i])
		}
		if math.Abs(float64(aA.dWv[i]-aB.dWv[i])) > 1e-5 {
			t.Fatalf("dWv[%d]: %v vs %v", i, aA.dWv[i], aB.dWv[i])
		}
	}
}
