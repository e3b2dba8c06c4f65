package trainer

import (
	"context"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/reader"
	"repro/internal/tensor"
)

// makeBatches generates a clustered synthetic partition and reads it back
// through the reader tier with dedup groups, so every batch carries IKJTs
// that can be run in either mode.
func makeBatches(t testing.TB, sessions, batchSize int) []*reader.Batch {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 2, Item: 1, Dense: 4, SeqLen: 12, Seed: 5,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: sessions, MeanSamplesPerSession: 5, Seed: 21,
	})
	samples := etl.ClusterBySession(gen.GeneratePartition())
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "tbl", 0, schema, samples, dwrf.TableOptions{}); err != nil {
		t.Fatal(err)
	}
	spec := reader.Spec{
		Table:          "tbl",
		BatchSize:      batchSize,
		SparseFeatures: []string{"item_0"},
		DedupSparseFeatures: [][]string{
			{"user_seq_0", "user_seq_1"},
			{"user_elem_0", "user_elem_1"},
		},
	}
	r, err := reader.NewReader(store, spec)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := catalog.AllFiles("tbl")
	var batches []*reader.Batch
	if err := r.Run(context.Background(), files, func(b *reader.Batch) error {
		batches = append(batches, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(batches) == 0 {
		t.Fatal("no batches")
	}
	return batches
}

func modelConfig() Config {
	return Config{
		EmbDim:       8,
		DenseIn:      4,
		BottomHidden: []int{16},
		TopHidden:    []int{16},
		Features: []FeatureConfig{
			{Key: "user_seq_0", Pool: AttentionPool, TableRows: 1 << 10},
			{Key: "user_seq_1", Pool: SumPool, TableRows: 1 << 10},
			{Key: "user_elem_0", Pool: MeanPool, TableRows: 1 << 10},
			{Key: "user_elem_1", Pool: MaxPool, TableRows: 1 << 10},
			{Key: "item_0", Pool: SumPool, TableRows: 1 << 10},
		},
		LR:   0.05,
		Seed: 1234,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for empty config")
	}
	cfg := modelConfig()
	cfg.Features = append(cfg.Features, cfg.Features[0]) // duplicate key
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for duplicate feature")
	}
	cfg = modelConfig()
	cfg.Features = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for no features")
	}
}

// TestForwardModeEquivalence is the paper's central accuracy claim
// (§6.2 "IKJTs encode the exact same logical data"): the RecD execution
// path produces bit-identical logits to the baseline path on the same
// batch with the same weights.
func TestForwardModeEquivalence(t *testing.T) {
	batches := makeBatches(t, 30, 32)
	m, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	for bi, b := range batches {
		base, _, _, err := m.Forward(b, Baseline)
		if err != nil {
			t.Fatal(err)
		}
		recd, _, _, err := m.Forward(b, RecD)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Data {
			if base.Data[i] != recd.Data[i] {
				t.Fatalf("batch %d logit %d differs: %v vs %v", bi, i, base.Data[i], recd.Data[i])
			}
		}
	}
}

// TestTrainingModeEquivalence trains two identically initialized models,
// one per mode, on the same batches; losses must track within float
// accumulation noise.
func TestTrainingModeEquivalence(t *testing.T) {
	batches := makeBatches(t, 30, 32)
	mBase, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	mRecD, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 3; epoch++ {
		for bi, b := range batches {
			lb, _, err := mBase.TrainStep(b, Baseline)
			if err != nil {
				t.Fatal(err)
			}
			lr, _, err := mRecD.TrainStep(b, RecD)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(lb-lr) > 1e-4*math.Max(1, math.Abs(lb)) {
				t.Fatalf("epoch %d batch %d: losses diverged %v vs %v", epoch, bi, lb, lr)
			}
		}
	}
}

// TestTrainingConverges: loss on a fixed batch decreases over steps.
func TestTrainingConverges(t *testing.T) {
	batches := makeBatches(t, 30, 64)
	m, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := batches[0]
	var first, last float64
	for it := 0; it < 30; it++ {
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
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

// TestCostReportSavings asserts the resource arithmetic behind Fig 6:
// RecD does fewer lookups, fewer pooling flops, fewer SDD and EMB-return
// bytes, at the cost of index-select traffic — which is itself far
// cheaper than the pre-O6 padded expansion.
func TestCostReportSavings(t *testing.T) {
	batches := makeBatches(t, 40, 64)
	m, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	var base, recd CostReport
	for _, b := range batches {
		_, _, cb, err := m.Forward(b, Baseline)
		if err != nil {
			t.Fatal(err)
		}
		base.Add(cb)
		_, _, cr, err := m.Forward(b, RecD)
		if err != nil {
			t.Fatal(err)
		}
		recd.Add(cr)
	}

	if recd.EmbLookups >= base.EmbLookups {
		t.Fatalf("RecD lookups %d not fewer than baseline %d", recd.EmbLookups, base.EmbLookups)
	}
	if recd.EmbActivationBytes >= base.EmbActivationBytes {
		t.Fatal("RecD should shrink activation memory")
	}
	if recd.PoolFLOPs >= base.PoolFLOPs {
		t.Fatal("RecD should shrink pooling flops")
	}
	if recd.SDDBytes >= base.SDDBytes {
		t.Fatal("RecD should shrink SDD bytes")
	}
	if recd.EmbOutBytes >= base.EmbOutBytes {
		t.Fatal("RecD should shrink embedding-return bytes")
	}
	if base.IndexSelectBytes != 0 {
		t.Fatal("baseline should not pay index select")
	}
	if recd.IndexSelectBytes == 0 {
		t.Fatal("RecD must account index select")
	}
	if recd.PaddedExpandBytes <= recd.IndexSelectBytes {
		t.Fatal("padded expansion should cost more than jagged index select")
	}
	// Dense flops are mode-independent (same batch, same model).
	if base.DenseFLOPs != recd.DenseFLOPs {
		t.Fatalf("dense flops should match: %v vs %v", base.DenseFLOPs, recd.DenseFLOPs)
	}
	t.Logf("lookups %.2fx, pool flops %.2fx, SDD bytes %.2fx",
		float64(base.EmbLookups)/float64(recd.EmbLookups),
		base.PoolFLOPs/recd.PoolFLOPs,
		float64(base.SDDBytes)/float64(recd.SDDBytes))
}

func TestForwardErrors(t *testing.T) {
	batches := makeBatches(t, 5, 16)
	cfg := modelConfig()
	cfg.Features = append(cfg.Features, FeatureConfig{Key: "ghost", Pool: SumPool})
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Forward(batches[0], RecD); err == nil {
		t.Fatal("expected error for missing feature")
	}

	cfg = modelConfig()
	cfg.DenseIn = 99
	m, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Forward(batches[0], Baseline); err == nil {
		t.Fatal("expected error for dense width mismatch")
	}
}

func TestPredictProbabilities(t *testing.T) {
	batches := makeBatches(t, 10, 16)
	m, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	probs, err := m.Predict(batches[0], RecD)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != batches[0].Size {
		t.Fatalf("got %d probs for %d rows", len(probs), batches[0].Size)
	}
	for _, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("probability out of range: %v", p)
		}
	}
}

func TestParamAccounting(t *testing.T) {
	m, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.DenseParamCount() <= 0 {
		t.Fatal("dense params should be positive")
	}
}

func TestBCEWithLogits(t *testing.T) {
	logits := tensorDenseFromValues([]float32{0, 5, -5})
	labels := []float32{1, 1, 0}
	loss, grad, err := BCEWithLogits(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	// z=0,y=1 → ln2; z=5,y=1 → ~0.0067; z=-5,y=0 → ~0.0067.
	want := (math.Log(2) + 2*0.006715) / 3
	if math.Abs(loss-want) > 1e-4 {
		t.Fatalf("loss = %v want ≈%v", loss, want)
	}
	// grad = (sigmoid(z)-y)/n.
	if math.Abs(float64(grad.At(0, 0))-(0.5-1)/3) > 1e-5 {
		t.Fatalf("grad[0] = %v", grad.At(0, 0))
	}
	if _, _, err := BCEWithLogits(logits, []float32{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func tensorDenseFromValues(vals []float32) tensor.Dense {
	d := tensor.NewDense(len(vals), 1)
	copy(d.Data, vals)
	return d
}
