package trainer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/lakefs"
)

// TestCheckpointRoundTripPredictions: a saved-and-loaded model produces
// bit-identical predictions.
func TestCheckpointRoundTripPredictions(t *testing.T) {
	batches := makeBatches(t, 20, 32)
	m, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Train a little so weights are non-initial.
	for i := 0; i < 3; i++ {
		if _, _, err := m.TrainStep(batches[i%len(batches)], RecD); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	want, err := m.Predict(batches[0], RecD)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m2.Predict(batches[0], RecD)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("prediction %d differs after checkpoint: %v vs %v", i, want[i], got[i])
		}
	}
}

// TestCheckpointResumesTrainingExactly: continuing training after a
// save/load matches continuing without it, including Adagrad state.
func TestCheckpointResumesTrainingExactly(t *testing.T) {
	batches := makeBatches(t, 20, 32)
	cfg := modelConfig()
	cfg.Opt = Adagrad
	cfg.LR = 0.05

	mA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := mA.TrainStep(batches[i], RecD); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := mA.Save(&buf); err != nil {
		t.Fatal(err)
	}
	mB, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Both continue with the same batch; losses must be identical because
	// the Adagrad accumulators were checkpointed too.
	lossA, _, err := mA.TrainStep(batches[3], RecD)
	if err != nil {
		t.Fatal(err)
	}
	lossB, _, err := mB.TrainStep(batches[3], RecD)
	if err != nil {
		t.Fatal(err)
	}
	if lossA != lossB {
		t.Fatalf("resumed training diverged: %v vs %v", lossA, lossB)
	}
}

// TestCheckpointToModelStore: publish a trained model into the blob store
// (the Figure 1 "Model Store") and load it back.
func TestCheckpointToModelStore(t *testing.T) {
	batches := makeBatches(t, 10, 32)
	m, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.TrainStep(batches[0], RecD); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	store := lakefs.NewStore()
	if err := store.Put("models/rm1/epoch-1.ckpt", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	data, err := store.Get("models/rm1/epoch-1.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m2.cfg.EmbDim != m.cfg.EmbDim {
		t.Fatal("config lost through model store")
	}
}

func TestCheckpointCorruption(t *testing.T) {
	batches := makeBatches(t, 10, 32)
	m, err := New(modelConfig())
	if err != nil {
		t.Fatal(err)
	}
	_ = batches
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := Load(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := Load(bytes.NewReader(data[:len(data)/3])); err == nil {
		t.Fatal("expected truncation error")
	}
	bad := append([]byte(nil), data...)
	bad[4] = 99 // version byte
	if _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("expected version error")
	}
}

// tinyModel is a model small enough to fuzz the checkpoint of: one table
// of each kind, the attention one with Adagrad state when accumulated.
func tinyModel(t testing.TB, accumulated bool) *Model {
	m, err := New(Config{
		EmbDim: 2, DenseIn: 1, BottomHidden: []int{2}, TopHidden: []int{2},
		Features: []FeatureConfig{
			{Key: "a", Pool: AttentionPool, TableRows: 3},
			{Key: "b", Pool: SumPool, TableRows: 2},
		},
		LR: 0.5, Opt: Adagrad, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if accumulated {
		l := m.bottom.Layers[0]
		l.gsqW, l.gsqB = make([]float32, len(l.W)), make([]float32, len(l.B))
		m.tables["a"].gsq = make([]float32, len(m.tables["a"].W))
		a := m.attn["a"]
		a.gsq = [][]float32{make([]float32, 4), make([]float32, 4), make([]float32, 4)}
	}
	return m
}

func saved(t testing.TB, m *Model) []byte {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointBytesAreFixed: a checkpoint file outlives the code that
// wrote it, so the bytes of a fixed model, Adagrad state included, are
// held to the digest of the ones the format has always had, and load back
// to the same bytes.
func TestCheckpointBytesAreFixed(t *testing.T) {
	const want = "70e3914a943f2d93bb8850a2ad42d934abee3b5b2d800164da05407315acb067"
	data := saved(t, tinyModel(t, true))
	if got := sha256.Sum256(data); len(data) != 330 || hex.EncodeToString(got[:]) != want {
		t.Fatalf("checkpoint of %d bytes, sha256 %x; want 330 bytes, %s", len(data), got, want)
	}
	m, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved(t, m), data) {
		t.Fatal("the loaded checkpoint saves to different bytes")
	}
}

// FuzzLoadCheckpoint: Load on arbitrary bytes either fails cleanly or
// yields a model whose checkpoint loads back to the same checkpoint, and
// never builds a model larger than the bytes it was handed.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, accumulated := range []bool{false, true} {
		whole := saved(f, tinyModel(f, accumulated))
		f.Add(whole)
		for _, cut := range []int{4, 12, len(whole) / 2, len(whole) - 1} {
			f.Add(whole[:cut])
		}
	}
	// A header whose one table claims 2^24 rows, with no parameters behind.
	f.Add([]byte("RDMD\x01\x01\x01\x00\x00\x01\x01a\x00\x80\x80\x80\x08\x01\x00\x00\x00\x3f\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if need := 4 * paramFloats(m.cfg); need > float64(len(data)) {
			t.Fatalf("%d bytes built a model of %.0f parameter bytes", len(data), need)
		}
		once := saved(t, m)
		back, err := Load(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("a loaded model's checkpoint does not load: %v", err)
		}
		if twice := saved(t, back); !bytes.Equal(once, twice) {
			t.Fatal("a loaded model's checkpoint changed on a second round trip")
		}
	})
}
