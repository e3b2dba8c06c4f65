package reader

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
	"repro/internal/tensor"
)

// testEnv lands one clustered partition of synthetic data and returns the
// store/catalog plus the schema and raw samples.
type testEnv struct {
	store   *lakefs.Store
	catalog *lakefs.Catalog
	schema  *datagen.Schema
	samples []datagen.Sample
}

func newTestEnv(t testing.TB, sessions int, clustered bool) *testEnv {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 2, UserElem: 3, Item: 2, Dense: 4, SeqLen: 24, Seed: 11,
	})
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: sessions, MeanSamplesPerSession: 6, Seed: 99,
	})
	samples := gen.GeneratePartition()
	if clustered {
		samples = etl.ClusterBySession(samples)
	}
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "tbl", 0, schema, samples,
		dwrf.TableOptions{RowsPerFile: 256, Writer: dwrf.WriterOptions{StripeRows: 128}}); err != nil {
		t.Fatal(err)
	}
	return &testEnv{store: store, catalog: catalog, schema: schema, samples: samples}
}

func baseSpec() Spec {
	return Spec{
		Table:          "tbl",
		BatchSize:      64,
		SparseFeatures: []string{"item_0", "item_1"},
		DedupSparseFeatures: [][]string{
			{"user_seq_0", "user_seq_1"},
			{"user_elem_0", "user_elem_1", "user_elem_2"},
		},
	}
}

func runAll(t *testing.T, env *testEnv, spec Spec) ([]*Batch, Stats) {
	t.Helper()
	r, err := NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*Batch
	if err := r.Run(context.Background(), files, func(b *Batch) error {
		batches = append(batches, b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return batches, r.Stats()
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"valid", baseSpec(), true},
		{"no table", Spec{BatchSize: 1}, false},
		{"zero batch", Spec{Table: "t"}, false},
		{"dup across lists", Spec{Table: "t", BatchSize: 1,
			SparseFeatures:      []string{"a"},
			DedupSparseFeatures: [][]string{{"a"}}}, false},
		{"dup within group", Spec{Table: "t", BatchSize: 1,
			DedupSparseFeatures: [][]string{{"a", "a"}}}, false},
		{"empty group", Spec{Table: "t", BatchSize: 1,
			DedupSparseFeatures: [][]string{{}}}, false},
		{"transform on unconsumed", Spec{Table: "t", BatchSize: 1,
			SparseFeatures:   []string{"a"},
			SparseTransforms: []SparseTransform{Clamp{Features: []string{"zzz"}}}}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestDedupGroupOf(t *testing.T) {
	s := baseSpec()
	if gi := s.DedupGroupOf("user_seq_1"); gi != 0 {
		t.Fatalf("group of user_seq_1 = %d want 0", gi)
	}
	if gi := s.DedupGroupOf("user_elem_2"); gi != 1 {
		t.Fatalf("group of user_elem_2 = %d want 1", gi)
	}
	if gi := s.DedupGroupOf("item_0"); gi != -1 {
		t.Fatalf("group of item_0 = %d want -1", gi)
	}
}

func TestReaderProducesValidBatches(t *testing.T) {
	env := newTestEnv(t, 40, true)
	batches, stats := runAll(t, env, baseSpec())

	if len(batches) == 0 {
		t.Fatal("no batches produced")
	}
	total := 0
	for _, b := range batches {
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		total += b.Size
		if len(b.IKJTs) != 2 {
			t.Fatalf("batch has %d IKJT groups want 2", len(b.IKJTs))
		}
		if b.KJT == nil || b.KJT.NumKeys() != 2 {
			t.Fatal("batch missing KJT features")
		}
	}
	if total != len(env.samples) {
		t.Fatalf("batches carried %d rows, partition has %d", total, len(env.samples))
	}
	if stats.RowsDecoded != int64(len(env.samples)) {
		t.Fatalf("RowsDecoded = %d want %d", stats.RowsDecoded, len(env.samples))
	}
	if stats.BatchesProduced != int64(len(batches)) {
		t.Fatalf("BatchesProduced = %d want %d", stats.BatchesProduced, len(batches))
	}
	if stats.ReadBytes == 0 || stats.SentBytes == 0 {
		t.Fatalf("byte accounting empty: %+v", stats)
	}
}

// TestBatchesEncodeExactData is the paper's accuracy claim: IKJTs encode
// the exact same logical data, so expanding every batch must reproduce the
// original rows in order.
func TestBatchesEncodeExactData(t *testing.T) {
	env := newTestEnv(t, 30, true)
	spec := baseSpec()
	batches, _ := runAll(t, env, spec)

	row := 0
	for _, b := range batches {
		for _, key := range spec.ConsumedFeatures() {
			fi, ok := env.schema.FeatureIndex(key)
			if !ok {
				t.Fatalf("schema missing %q", key)
			}
			j, ok := b.Feature(key)
			if !ok {
				t.Fatalf("batch missing feature %q", key)
			}
			for i := 0; i < b.Size; i++ {
				want := env.samples[row+i].Sparse[fi]
				got := j.Row(i)
				if len(got) != len(want) {
					t.Fatalf("feature %q row %d: len %d want %d", key, row+i, len(got), len(want))
				}
				for k := range got {
					if got[k] != want[k] {
						t.Fatalf("feature %q row %d value %d: %d want %d", key, row+i, k, got[k], want[k])
					}
				}
			}
		}
		for i := 0; i < b.Size; i++ {
			if b.Labels[i] != float32(env.samples[row+i].Label) {
				t.Fatalf("label row %d mismatch", row+i)
			}
			for c := 0; c < b.Dense.Cols; c++ {
				if b.Dense.At(i, c) != env.samples[row+i].Dense[c] {
					t.Fatalf("dense row %d col %d mismatch", row+i, c)
				}
			}
		}
		row += b.Size
	}
}

// TestClusteringRaisesDedupFactor: clustered batches co-locate a session's
// samples, so IKJT dedup factors rise versus the interleaved baseline
// (paper §3: 16.5 samples/session per partition but 1.15 per batch without
// clustering).
func TestClusteringRaisesDedupFactor(t *testing.T) {
	factor := func(clustered bool) float64 {
		env := newTestEnv(t, 60, clustered)
		batches, _ := runAll(t, env, baseSpec())
		var orig, dedup float64
		for _, b := range batches {
			for _, ik := range b.IKJTs {
				for i := 0; i < ik.NumKeys(); i++ {
					dedup += float64(ik.DedupedAt(i).NumValues())
				}
			}
			orig += float64(b.OriginalSparseValues)
			if b.KJT != nil {
				for i := 0; i < b.KJT.NumKeys(); i++ {
					orig -= float64(b.KJT.FeatureAt(i).NumValues()) // KJT features not deduplicated
				}
			}
		}
		return orig / dedup
	}

	base, clust := factor(false), factor(true)
	if clust <= base*1.5 {
		t.Fatalf("clustering should raise dedup factor: base %.2f clustered %.2f", base, clust)
	}
	// Interleaved batches retain some residual dedup at this small scale
	// (a session's samples are time-local), but far less than clustered.
	t.Logf("dedup factor: interleaved %.2f, clustered %.2f", base, clust)
}

// TestDedupReducesSentBytes: with the same data, a dedup spec sends fewer
// bytes to trainers than an all-KJT spec (Table 3 "Send Bytes").
func TestDedupReducesSentBytes(t *testing.T) {
	env := newTestEnv(t, 50, true)

	dedupSpec := baseSpec()
	kjtSpec := dedupSpec
	kjtSpec.DedupSparseFeatures = nil
	kjtSpec.SparseFeatures = dedupSpec.ConsumedFeatures()

	_, dedupStats := runAll(t, env, dedupSpec)
	_, kjtStats := runAll(t, env, kjtSpec)

	if dedupStats.SentBytes >= kjtStats.SentBytes {
		t.Fatalf("dedup should cut egress: dedup %d kjt %d", dedupStats.SentBytes, kjtStats.SentBytes)
	}
	if dedupStats.ReadBytes != kjtStats.ReadBytes {
		t.Fatalf("ingest bytes should not depend on spec: %d vs %d", dedupStats.ReadBytes, kjtStats.ReadBytes)
	}
	t.Logf("sent bytes: kjt %d, ikjt %d (%.2fx)", kjtStats.SentBytes, dedupStats.SentBytes,
		float64(kjtStats.SentBytes)/float64(dedupStats.SentBytes))
}

// TestDedupReducesProcessOps: transforms over IKJT groups run on deduped
// values only (O4), so ProcessOps shrinks versus the KJT spec while
// producing identical logical outputs.
func TestDedupReducesProcessOps(t *testing.T) {
	env := newTestEnv(t, 50, true)

	transforms := []SparseTransform{
		HashMod{Features: []string{"user_seq_0", "user_seq_1", "item_0"}, TableSize: 1 << 20},
	}
	dedupSpec := baseSpec()
	dedupSpec.SparseTransforms = transforms
	kjtSpec := dedupSpec
	kjtSpec.DedupSparseFeatures = nil
	kjtSpec.SparseFeatures = baseSpec().ConsumedFeatures()
	kjtSpec.SparseTransforms = transforms

	dedupBatches, dedupStats := runAll(t, env, dedupSpec)
	kjtBatches, kjtStats := runAll(t, env, kjtSpec)

	if dedupStats.ProcessOps >= kjtStats.ProcessOps {
		t.Fatalf("dedup should cut transform ops: %d vs %d", dedupStats.ProcessOps, kjtStats.ProcessOps)
	}

	// Logical equality of the transformed feature across both paths.
	for bi := range dedupBatches {
		want, _ := kjtBatches[bi].Feature("user_seq_0")
		got, _ := dedupBatches[bi].Feature("user_seq_0")
		if !got.Equal(want) {
			t.Fatalf("batch %d: transformed feature differs between IKJT and KJT paths", bi)
		}
	}
	t.Logf("process ops: kjt %d, ikjt %d (%.2fx)", kjtStats.ProcessOps, dedupStats.ProcessOps,
		float64(kjtStats.ProcessOps)/float64(dedupStats.ProcessOps))
}

func TestTransforms(t *testing.T) {
	j := tensor.NewJagged([][]tensor.Value{{1, 2, 3, 4, 5}, {100}, {}})

	tr := Truncate{Features: []string{"f"}, MaxLen: 2}
	got := tr.Apply(j)
	if got.RowLen(0) != 2 || got.Row(0)[0] != 4 || got.Row(0)[1] != 5 {
		t.Fatalf("truncate kept wrong window: %v", got.Row(0))
	}
	if got.RowLen(1) != 1 || got.RowLen(2) != 0 {
		t.Fatal("truncate damaged short rows")
	}

	cl := Clamp{Features: []string{"f"}, Min: 2, Max: 4}
	got = cl.Apply(j)
	if got.Row(0)[0] != 2 || got.Row(0)[4] != 4 || got.Row(1)[0] != 4 {
		t.Fatalf("clamp wrong: %v %v", got.Row(0), got.Row(1))
	}
	// Input untouched.
	if j.Row(0)[0] != 1 {
		t.Fatal("clamp mutated input")
	}

	hm := HashMod{Features: []string{"f"}, TableSize: 97}
	got = hm.Apply(j)
	for _, v := range got.Values {
		if v < 0 || v >= 97 {
			t.Fatalf("hash_mod out of range: %d", v)
		}
	}
	// Deterministic.
	again := hm.Apply(j)
	if !got.Equal(again) {
		t.Fatal("hash_mod not deterministic")
	}

	var d tensor.Dense = tensor.NewDense(1, 3)
	d.Data[0], d.Data[1], d.Data[2] = 0, 10, -10
	LogNormalize{}.Apply(d)
	if d.Data[0] != 0 || d.Data[1] <= 0 || d.Data[2] >= 0 {
		t.Fatalf("log_normalize wrong: %v", d.Data)
	}
	if d.Data[1] != -d.Data[2] {
		t.Fatal("log_normalize not sign-symmetric")
	}
}

func TestShortFinalBatch(t *testing.T) {
	env := newTestEnv(t, 10, true)
	spec := baseSpec()
	spec.BatchSize = 1000000 // bigger than the partition
	batches, _ := runAll(t, env, spec)
	if len(batches) != 1 {
		t.Fatalf("expected one short batch, got %d", len(batches))
	}
	if batches[0].Size != len(env.samples) {
		t.Fatalf("short batch size %d want %d", batches[0].Size, len(env.samples))
	}
}

func TestEmitErrorAborts(t *testing.T) {
	env := newTestEnv(t, 20, true)
	r, err := NewReader(env.store, baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	files, _ := env.catalog.AllFiles("tbl")
	wantErr := fmt.Errorf("stop")
	calls := 0
	err = r.Run(context.Background(), files, func(b *Batch) error {
		calls++
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("err = %v want %v", err, wantErr)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after error", calls)
	}
}

func TestUnknownFeature(t *testing.T) {
	env := newTestEnv(t, 5, true)
	spec := baseSpec()
	spec.SparseFeatures = append(spec.SparseFeatures, "not_a_feature")
	r, err := NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := env.catalog.AllFiles("tbl")
	if err := r.Run(context.Background(), files, func(*Batch) error { return nil }); err == nil {
		t.Fatal("expected error for unknown feature")
	}
}

func BenchmarkReaderPipeline(b *testing.B) {
	env := newTestEnv(b, 100, true)
	spec := baseSpec()
	files, _ := env.catalog.AllFiles("tbl")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := NewReader(env.store, spec)
		if err := r.Run(context.Background(), files, func(*Batch) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
