package dwrf

import (
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/etl"
	"repro/internal/lakefs"
)

func testSchema() *datagen.Schema {
	return datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq:  2,
		UserElem: 4,
		Item:     2,
		Dense:    8,
		SeqLen:   32,
		Seed:     7,
	})
}

func testSamples(t testing.TB, schema *datagen.Schema, sessions int) []datagen.Sample {
	t.Helper()
	gen := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions:              sessions,
		MeanSamplesPerSession: 8,
		Seed:                  42,
	})
	return gen.GeneratePartition()
}

func samplesEqual(a, b datagen.Sample) bool {
	if a.SessionID != b.SessionID || a.UserID != b.UserID ||
		a.RequestID != b.RequestID || a.Timestamp != b.Timestamp || a.Label != b.Label {
		return false
	}
	if len(a.Sparse) != len(b.Sparse) || len(a.Dense) != len(b.Dense) {
		return false
	}
	for i := range a.Sparse {
		if len(a.Sparse[i]) != len(b.Sparse[i]) {
			return false
		}
		for j := range a.Sparse[i] {
			if a.Sparse[i][j] != b.Sparse[i][j] {
				return false
			}
		}
	}
	for i := range a.Dense {
		if a.Dense[i] != b.Dense[i] {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 20)

	w, err := NewFileWriter(schema, WriterOptions{StripeRows: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRows(samples); err != nil {
		t.Fatal(err)
	}
	data, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != len(samples) {
		t.Fatalf("stats.Rows = %d want %d", stats.Rows, len(samples))
	}
	wantStripes := (len(samples) + 15) / 16
	if stats.Stripes != wantStripes {
		t.Fatalf("stats.Stripes = %d want %d", stats.Stripes, wantStripes)
	}

	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != len(samples) {
		t.Fatalf("NumRows = %d want %d", r.NumRows(), len(samples))
	}
	if r.DenseCount() != schema.Dense {
		t.Fatalf("DenseCount = %d want %d", r.DenseCount(), schema.Dense)
	}
	keys := r.SparseKeys()
	want := schema.SparseKeys()
	if len(keys) != len(want) {
		t.Fatalf("SparseKeys = %v want %v", keys, want)
	}
	for i := range keys {
		if keys[i] != want[i] {
			t.Fatalf("key %d = %q want %q", i, keys[i], want[i])
		}
	}

	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("ReadAll returned %d rows want %d", len(got), len(samples))
	}
	for i := range got {
		if !samplesEqual(got[i], samples[i]) {
			t.Fatalf("row %d mismatch:\n got %+v\nwant %+v", i, got[i], samples[i])
		}
	}
}

func TestEmptyFile(t *testing.T) {
	schema := testSchema()
	w, err := NewFileWriter(schema, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 0 || stats.Stripes != 0 {
		t.Fatalf("empty file stats: %+v", stats)
	}
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("expected no rows, got %d", len(got))
	}
}

func TestWriteAfterFinish(t *testing.T) {
	schema := testSchema()
	w, _ := NewFileWriter(schema, WriterOptions{})
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow(testSamples(t, schema, 1)[0]); err == nil {
		t.Fatal("expected error writing after Finish")
	}
	if _, _, err := w.Finish(); err == nil {
		t.Fatal("expected error finishing twice")
	}
}

func TestSchemaMismatch(t *testing.T) {
	schema := testSchema()
	w, _ := NewFileWriter(schema, WriterOptions{})
	s := testSamples(t, schema, 1)[0]
	s.Sparse = s.Sparse[:2]
	if err := w.WriteRow(s); err == nil {
		t.Fatal("expected error for wrong sparse count")
	}
	s = testSamples(t, schema, 1)[0]
	s.Dense = s.Dense[:1]
	if err := w.WriteRow(s); err == nil {
		t.Fatal("expected error for wrong dense count")
	}
}

func TestInvalidOptions(t *testing.T) {
	schema := testSchema()
	if _, err := NewFileWriter(schema, WriterOptions{CompressionLevel: 42}); err == nil {
		t.Fatal("expected error for bad compression level")
	}
	if _, err := NewFileWriter(nil, WriterOptions{}); err == nil {
		t.Fatal("expected error for nil schema")
	}
}

func TestCorruptFile(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 5)
	w, _ := NewFileWriter(schema, WriterOptions{})
	if err := w.WriteRows(samples); err != nil {
		t.Fatal(err)
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bad head magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		},
		"bad tail magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] = 'X'
			return c
		},
		"tiny": func(b []byte) []byte { return b[:4] },
	}
	for name, corrupt := range cases {
		if _, err := OpenReader(corrupt(data)); err == nil {
			t.Errorf("%s: expected open error", name)
		}
	}

	// Flipping a byte inside a stripe must fail at decode, not crash.
	c := append([]byte(nil), data...)
	c[10] ^= 0xFF
	if r, err := OpenReader(c); err == nil {
		if _, err := r.ReadAll(); err == nil {
			t.Error("corrupted stripe decoded without error")
		}
	}
}

func TestStripeRangeRead(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 30)
	w, _ := NewFileWriter(schema, WriterOptions{StripeRows: 8})
	if err := w.WriteRows(samples); err != nil {
		t.Fatal(err)
	}
	data, _, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}

	// Decode stripe 1 via its byte range, as the reader tier's fill does.
	off, length := r.StripeByteRange(1)
	got, err := DecodeStripe(data[off:off+length], r.SparseKeys(), r.DenseCount())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != r.StripeRows(1) {
		t.Fatalf("stripe rows = %d want %d", len(got), r.StripeRows(1))
	}
	for i := range got {
		if !samplesEqual(got[i], samples[8+i]) {
			t.Fatalf("stripe row %d mismatch", i)
		}
	}

	if _, err := r.ReadStripe(-1); err == nil {
		t.Fatal("expected error for negative stripe")
	}
	if _, err := r.ReadStripe(r.NumStripes()); err == nil {
		t.Fatal("expected error for out-of-range stripe")
	}
}

// TestClusteringImprovesCompression is the O2 property: a table clustered
// by session ID compresses strictly better than the same rows interleaved
// by inference time, because stripes then contain adjacent duplicate
// feature lists (paper §4.1, Fig 7 storage row).
func TestClusteringImprovesCompression(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 150) // interleaved by timestamp

	write := func(ss []datagen.Sample) FileStats {
		w, err := NewFileWriter(schema, WriterOptions{StripeRows: 256})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteRows(ss); err != nil {
			t.Fatal(err)
		}
		_, stats, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	base := write(samples)
	clustered := write(etl.ClusterBySession(samples))

	// Raw bytes may differ marginally (delta-encoded metadata varints
	// depend on row order) but the feature payload is identical.
	if diff := float64(clustered.RawBytes-base.RawBytes) / float64(base.RawBytes); diff > 0.01 || diff < -0.01 {
		t.Fatalf("raw bytes changed by clustering beyond tolerance: %d vs %d", base.RawBytes, clustered.RawBytes)
	}
	rBase, rClust := base.CompressionRatio(), clustered.CompressionRatio()
	if rClust <= rBase*1.2 {
		t.Fatalf("clustering should improve compression markedly: base %.2f clustered %.2f", rBase, rClust)
	}
	t.Logf("compression ratio: baseline %.2f, clustered %.2f (%.2fx)", rBase, rClust, rClust/rBase)
}

func TestColumnStats(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 10)
	w, _ := NewFileWriter(schema, WriterOptions{})
	if err := w.WriteRows(samples); err != nil {
		t.Fatal(err)
	}
	_, stats, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Columns) != 2+len(schema.Sparse) {
		t.Fatalf("columns = %d want %d", len(stats.Columns), 2+len(schema.Sparse))
	}
	if stats.Columns[0].Name != "_meta" || stats.Columns[1].Name != "_dense" {
		t.Fatalf("column names: %v %v", stats.Columns[0].Name, stats.Columns[1].Name)
	}
	var raw int64
	for _, c := range stats.Columns {
		raw += c.RawBytes
	}
	if raw != stats.RawBytes {
		t.Fatalf("column raw bytes %d != total %d", raw, stats.RawBytes)
	}
	// Sequence feature columns dominate raw bytes, as in the paper.
	seqIdx, _ := schema.FeatureIndex("user_seq_0")
	if stats.Columns[2+seqIdx].RawBytes < stats.Columns[0].RawBytes {
		t.Fatal("sequence feature column should outweigh metadata")
	}
}

func TestWritePartitionAndReadBack(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 40)
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()

	stats, err := WritePartition(store, catalog, "tbl", 5, schema, samples,
		TableOptions{RowsPerFile: 64, Writer: WriterOptions{StripeRows: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != len(samples) {
		t.Fatalf("partition rows = %d want %d", stats.Rows, len(samples))
	}
	wantFiles := (len(samples) + 63) / 64
	if stats.Files != wantFiles {
		t.Fatalf("files = %d want %d", stats.Files, wantFiles)
	}
	files, err := catalog.Files("tbl", 5)
	if err != nil || len(files) != wantFiles {
		t.Fatalf("catalog files = %v, %v", files, err)
	}

	got, err := ReadPartition(store, catalog, "tbl", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(samples) {
		t.Fatalf("read %d rows want %d", len(got), len(samples))
	}
	for i := range got {
		if !samplesEqual(got[i], samples[i]) {
			t.Fatalf("row %d mismatch after partition round trip", i)
		}
	}
}

func TestWriteEmptyPartition(t *testing.T) {
	schema := testSchema()
	store := lakefs.NewStore()
	catalog := lakefs.NewCatalog()
	stats, err := WritePartition(store, catalog, "tbl", 0, schema, nil, TableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Files != 1 || stats.Rows != 0 {
		t.Fatalf("empty partition stats: %+v", stats)
	}
	got, err := ReadPartition(store, catalog, "tbl", 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty partition read: %d rows, %v", len(got), err)
	}
}

func BenchmarkFileWrite(b *testing.B) {
	schema := testSchema()
	samples := testSamples(b, schema, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := NewFileWriter(schema, WriterOptions{})
		if err := w.WriteRows(samples); err != nil {
			b.Fatal(err)
		}
		if _, _, err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFileRead(b *testing.B) {
	schema := testSchema()
	samples := testSamples(b, schema, 100)
	w, _ := NewFileWriter(schema, WriterOptions{})
	if err := w.WriteRows(samples); err != nil {
		b.Fatal(err)
	}
	data, _, err := w.Finish()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := OpenReader(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStripeColumns is the fill's decode unit with nothing around it —
// no store, no fetch model: one 128-row stripe of the benchmark ladder's
// table (core.RM1's schema, session-clustered) read from memory, under the
// full projection and under the ladder's narrow spec's 5 of 25 features.
func BenchmarkStripeColumns(b *testing.B) {
	const stripeRows = 128
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{ // core.RM1().SchemaCfg; core imports this package
		UserSeq: 9, UserElem: 12, Item: 4, Dense: 8, SeqLen: 24, SeqGroupSize: 3, Seed: 101,
	})
	samples := etl.ClusterBySession(datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 40, MeanSamplesPerSession: 16.5, Seed: 1001,
	}).GeneratePartition())
	if len(samples) < 2*stripeRows {
		b.Fatalf("generated %d rows, need two stripes", len(samples))
	}
	data, _ := writeFile(b, schema, samples, stripeRows)
	r, err := OpenReader(data)
	if err != nil {
		b.Fatal(err)
	}
	keys := r.SparseKeys()
	var narrow []int
	for _, f := range []string{"item_0", "user_seq_0", "user_seq_1", "user_seq_2", "user_elem_0"} {
		narrow = append(narrow, slices.Index(keys, f))
	}
	for _, bc := range []struct {
		name string
		cols []int
	}{{"full", allColumns(len(keys))}, {"5of25", narrow}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := r.StripeColumns(1, bc.cols) // not stripe 0: its full read also fetches the magic
				if err != nil || c.Rows() != stripeRows {
					b.Fatalf("stripe of %d rows, %v", c.Rows(), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stripeRows), "ns/row")
		})
	}
}
