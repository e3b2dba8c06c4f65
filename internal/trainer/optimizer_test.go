package trainer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestOptimizerString(t *testing.T) {
	if SGD.String() != "sgd" || Adagrad.String() != "adagrad" {
		t.Fatal("optimizer names wrong")
	}
	if Optimizer(9).String() == "" {
		t.Fatal("unknown optimizer should still print")
	}
}

func TestAdagradApplyKnown(t *testing.T) {
	params := []float32{1, 1}
	grads := []float32{2, 0}
	state := []float32{0, 0}
	adagradApply(params, grads, state, 0.5)
	// state[0] = 4; step = 0.5·2/(2+eps) ≈ 0.5.
	if math.Abs(float64(params[0]-0.5)) > 1e-5 {
		t.Fatalf("params[0] = %v want 0.5", params[0])
	}
	// Zero gradient leaves the coordinate and its state untouched.
	if params[1] != 1 || state[1] != 0 {
		t.Fatal("zero-grad coordinate moved")
	}
	if grads[0] != 0 {
		t.Fatal("grads must be zeroed")
	}

	// A second identical gradient takes a smaller step (adaptive decay).
	before := params[0]
	grads[0] = 2
	adagradApply(params, grads, state, 0.5)
	step2 := float64(before - params[0])
	if step2 >= 0.5 || step2 <= 0 {
		t.Fatalf("second adagrad step %v should shrink below 0.5", step2)
	}
}

func TestLinearAdagradConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(2, 1, rng)
	x := tensor.NewDense(4, 2)
	target := []float32{3, -1, 1, 5}
	for i := range x.Data {
		x.Data[i] = rng.Float32()*2 - 1
	}
	// Targets from a fixed linear function plus the layer must fit it.
	for i := 0; i < 4; i++ {
		target[i] = 2*x.At(i, 0) - 3*x.At(i, 1)
	}
	var first, last float64
	for it := 0; it < 300; it++ {
		out := l.Forward(x)
		g := tensor.NewDense(4, 1)
		var loss float64
		for i := 0; i < 4; i++ {
			diff := out.At(i, 0) - target[i]
			loss += float64(diff) * float64(diff)
			g.Set(i, 0, 2*diff)
		}
		if it == 0 {
			first = loss
		}
		last = loss
		l.Backward(g)
		l.Apply(Adagrad, 0.5)
	}
	if last > first/100 {
		t.Fatalf("adagrad did not converge: %v -> %v", first, last)
	}
}

func TestEmbeddingAdagradSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, _ := NewEmbeddingBag(16, 2, rng)
	ids := tensor.NewJagged([][]tensor.Value{{3}})
	if _, err := e.LookupPooled(ids, SumPool); err != nil {
		t.Fatal(err)
	}
	g := tensor.NewDense(1, 2)
	g.Data[0] = 1
	if err := e.BackwardPooled(g); err != nil {
		t.Fatal(err)
	}
	slot := e.slot(3)
	before := e.row(slot)[0]
	e.Apply(Adagrad, 0.1)
	step1 := before - e.row(slot)[0]
	if step1 <= 0 {
		t.Fatal("adagrad step should move against gradient")
	}
	if len(e.grads) != 0 {
		t.Fatal("Apply must clear sparse grads")
	}

	// Same gradient again: smaller step.
	e.LookupPooled(ids, SumPool)
	e.BackwardPooled(g)
	before = e.row(slot)[0]
	e.Apply(Adagrad, 0.1)
	step2 := before - e.row(slot)[0]
	if step2 >= step1 {
		t.Fatalf("adagrad step should decay: %v then %v", step1, step2)
	}
}

// TestModelAdagradTrains: the full DLRM converges under Adagrad, and the
// two execution modes remain equivalent.
func TestModelAdagradTrains(t *testing.T) {
	batches := makeBatches(t, 30, 64)
	cfg := modelConfig()
	cfg.Opt = Adagrad
	cfg.LR = 0.1
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := batches[0]
	var first, last float64
	for it := 0; it < 25; it++ {
		loss, _, err := m.TrainStep(b, RecD)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("adagrad training did not improve: %v -> %v", first, last)
	}

	// Mode equivalence holds under Adagrad as well.
	mBase, _ := New(cfg)
	mRecD, _ := New(cfg)
	for i := 0; i < 3; i++ {
		lb, _, err := mBase.TrainStep(batches[i], Baseline)
		if err != nil {
			t.Fatal(err)
		}
		lr, _, err := mRecD.TrainStep(batches[i], RecD)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(lb-lr) > 1e-3*math.Max(1, math.Abs(lb)) {
			t.Fatalf("adagrad mode losses diverged: %v vs %v", lb, lr)
		}
	}
}

func TestAttentionAdagrad(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewAttentionBlock(4, rng)
	x := randSeq(rng, 3, 4)
	out, cache := a.Forward(x)
	dOut := make([]float32, 4)
	for i, v := range out {
		dOut[i] = v
	}
	a.Backward(cache, dOut)
	w0 := a.Wq[0]
	a.Apply(Adagrad, 0.1)
	for i := range a.dWq {
		if a.dWq[i] != 0 {
			t.Fatal("Apply must zero grads")
		}
	}
	_ = w0
}
