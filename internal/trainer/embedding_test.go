package trainer

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestEmbeddingLookupPooledSum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e, err := NewEmbeddingBag(64, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	ids := tensor.NewJagged([][]tensor.Value{{5, 9}, {}, {5}})
	out, err := e.LookupPooled(ids, SumPool)
	if err != nil {
		t.Fatal(err)
	}
	if out.RowsN != 3 || out.Cols != 4 {
		t.Fatalf("shape %dx%d", out.RowsN, out.Cols)
	}
	// Row 1 (empty list) pools to zero.
	for _, v := range out.Row(1) {
		if v != 0 {
			t.Fatal("empty list should pool to zero")
		}
	}
	// Row 0 = emb(5)+emb(9); row 2 = emb(5).
	r5 := e.row(e.slot(5))
	r9 := e.row(e.slot(9))
	for d := 0; d < 4; d++ {
		if math.Abs(float64(out.At(0, d)-(r5[d]+r9[d]))) > 1e-6 {
			t.Fatal("sum pooling wrong")
		}
		if out.At(2, d) != r5[d] {
			t.Fatal("single-element sum wrong")
		}
	}
}

func TestEmbeddingLookupPooledMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, _ := NewEmbeddingBag(64, 4, rng)
	ids := tensor.NewJagged([][]tensor.Value{{1, 2, 3, 4}})
	sum, _ := e.LookupPooled(ids, SumPool)
	mean, _ := e.LookupPooled(ids, MeanPool)
	for d := 0; d < 4; d++ {
		if math.Abs(float64(mean.At(0, d)-sum.At(0, d)/4)) > 1e-6 {
			t.Fatal("mean != sum/4")
		}
	}
}

func TestEmbeddingLookupPooledMax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e, _ := NewEmbeddingBag(64, 2, rng)
	ids := tensor.NewJagged([][]tensor.Value{{7, 11, 13}})
	out, _ := e.LookupPooled(ids, MaxPool)
	for d := 0; d < 2; d++ {
		maxv := float32(math.Inf(-1))
		for _, id := range []tensor.Value{7, 11, 13} {
			if v := e.row(e.slot(id))[d]; v > maxv {
				maxv = v
			}
		}
		if out.At(0, d) != maxv {
			t.Fatal("max pooling wrong")
		}
	}
}

func TestEmbeddingAttentionPoolRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e, _ := NewEmbeddingBag(8, 2, rng)
	if _, err := e.LookupPooled(tensor.Jagged{Offsets: make([]int32, 1)}, AttentionPool); err == nil {
		t.Fatal("expected error for attention pooling via LookupPooled")
	}
}

func TestEmbeddingBackwardSumGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e, _ := NewEmbeddingBag(32, 3, rng)
	ids := tensor.NewJagged([][]tensor.Value{{4, 4, 6}, {6}})

	loss := func() float64 {
		out, _ := e.LookupPooled(ids, SumPool)
		var s float64
		for _, v := range out.Data {
			s += float64(v) * float64(v)
		}
		return s
	}

	out, _ := e.LookupPooled(ids, SumPool)
	if err := e.BackwardPooled(lossGrad(out)); err != nil {
		t.Fatal(err)
	}
	slot4 := e.slot(4)
	got := float64(e.grads[slot4][0])
	want := numericGrad(&e.W[slot4*3], loss)
	if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
		t.Fatalf("emb grad = %v want %v", got, want)
	}
}

func TestEmbeddingBackwardMeanAndMax(t *testing.T) {
	for _, pool := range []PoolKind{MeanPool, MaxPool} {
		rng := rand.New(rand.NewSource(6))
		e, _ := NewEmbeddingBag(32, 3, rng)
		ids := tensor.NewJagged([][]tensor.Value{{2, 9, 17}})
		loss := func() float64 {
			out, _ := e.LookupPooled(ids, pool)
			var s float64
			for _, v := range out.Data {
				s += float64(v) * float64(v)
			}
			return s
		}
		out, _ := e.LookupPooled(ids, pool)
		if err := e.BackwardPooled(lossGrad(out)); err != nil {
			t.Fatal(err)
		}
		slot := e.slot(9)
		var got float64
		if g, ok := e.grads[slot]; ok {
			got = float64(g[1])
		}
		want := numericGrad(&e.W[slot*3+1], loss)
		if math.Abs(got-want) > 1e-2*math.Max(1, math.Abs(want)) {
			t.Fatalf("%v grad = %v want %v", pool, got, want)
		}
	}
}

func TestEmbeddingBackwardShapeError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e, _ := NewEmbeddingBag(8, 2, rng)
	if _, err := e.LookupPooled(tensor.NewJagged([][]tensor.Value{{1}}), SumPool); err != nil {
		t.Fatal(err)
	}
	if err := e.BackwardPooled(tensor.NewDense(5, 2)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestEmbeddingStepClearsAndUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	e, _ := NewEmbeddingBag(16, 2, rng)
	ids := tensor.NewJagged([][]tensor.Value{{3}})
	out, _ := e.LookupPooled(ids, SumPool)
	g := tensor.NewDense(1, 2)
	g.Data[0], g.Data[1] = 1, -1
	if err := e.BackwardPooled(g); err != nil {
		t.Fatal(err)
	}
	if len(e.grads) != 1 {
		t.Fatalf("pending rows = %d", len(e.grads))
	}
	slot := e.slot(3)
	before := append([]float32(nil), e.row(slot)...)
	e.Apply(SGD, 0.5)
	after := e.row(slot)
	if math.Abs(float64(after[0]-(before[0]-0.5))) > 1e-6 ||
		math.Abs(float64(after[1]-(before[1]+0.5))) > 1e-6 {
		t.Fatalf("sparse update wrong: %v -> %v", before, after)
	}
	if len(e.grads) != 0 {
		t.Fatal("Apply must clear gradients")
	}
	_ = out
}

func TestEmbeddingSeqAndAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e, _ := NewEmbeddingBag(16, 2, rng)
	ids := []tensor.Value{1, 5}
	seq := e.LookupSeq(ids)
	if seq.RowsN != 2 || seq.Cols != 2 {
		t.Fatalf("seq shape %dx%d", seq.RowsN, seq.Cols)
	}
	for i, id := range ids {
		r := e.row(e.slot(id))
		for d := 0; d < 2; d++ {
			if seq.At(i, d) != r[d] {
				t.Fatal("seq lookup wrong")
			}
		}
	}
	dSeq := tensor.NewDense(2, 2)
	for i := range dSeq.Data {
		dSeq.Data[i] = 1
	}
	e.AccumulateSeqGrad(ids, dSeq, 2) // scale 2
	// Expected grad per slot accounts for possible hash collisions.
	want := map[int]float32{}
	for _, id := range ids {
		want[e.slot(id)] += 2
	}
	for slot, w := range want {
		if g := e.grads[slot]; g[0] != w {
			t.Fatalf("scaled seq grad at slot %d = %v want %v", slot, g[0], w)
		}
	}
}

func TestEmbeddingInvalidConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	if _, err := NewEmbeddingBag(0, 4, rng); err == nil {
		t.Fatal("expected error for zero rows")
	}
	if _, err := NewEmbeddingBag(4, 0, rng); err == nil {
		t.Fatal("expected error for zero dim")
	}
}

func TestPoolKindString(t *testing.T) {
	if SumPool.String() != "sum" || MeanPool.String() != "mean" ||
		MaxPool.String() != "max" || AttentionPool.String() != "attention" {
		t.Fatal("PoolKind names wrong")
	}
	if PoolKind(99).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}
