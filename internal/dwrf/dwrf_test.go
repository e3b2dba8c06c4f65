package dwrf

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

// chunkRow is s as a chunk holds it: without its row keys, which a stripe
// does not store.
func chunkRow(s datagen.Sample) datagen.Sample {
	s.SessionID, s.UserID, s.RequestID, s.Timestamp = 0, 0, 0, 0
	return s
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
	if err := r.ReadRowKeys(got[1:]); err == nil {
		t.Fatal("ReadRowKeys accepted one row fewer than the file holds")
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
	if _, err := NewFileWriter(schema, WriterOptions{StripeRows: maxStripeRows + 1}); err == nil {
		t.Fatal("expected error for oversized stripes")
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

	// Decode stripe 1 on its own, as the reader tier's fill does.
	c, err := r.StripeColumns(1, allColumns(len(r.SparseKeys())))
	if err != nil {
		t.Fatal(err)
	}
	got := c.Samples()
	if len(got) != r.StripeRows(1) {
		t.Fatalf("stripe rows = %d want %d", len(got), r.StripeRows(1))
	}
	for i := range got {
		if !samplesEqual(got[i], chunkRow(samples[8+i])) {
			t.Fatalf("stripe row %d mismatch", i)
		}
	}

	if _, err := r.StripeColumns(-1, nil); err == nil {
		t.Fatal("expected error for negative stripe")
	}
	if _, err := r.StripeColumns(r.NumStripes(), nil); err == nil {
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
	ratio := func(s FileStats) float64 { return float64(s.RawBytes) / float64(s.CompressedBytes) }
	rBase, rClust := ratio(base), ratio(clustered)
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

// withLists returns copies of rows whose sparse list fi of row i is
// list(i, fi); the other fields are kept.
func withLists(rows []datagen.Sample, list func(i, fi int) []int64) []datagen.Sample {
	out := make([]datagen.Sample, len(rows))
	for i, s := range rows {
		out[i] = s
		out[i].Sparse = make([][]int64, len(s.Sparse))
		for fi := range s.Sparse {
			out[i].Sparse[fi] = list(i, fi)
		}
	}
	return out
}

// window is list fi of row i of a table whose rows slide over one
// sequence a feature: from row to row, a drop of 0–3 IDs and a tail of 0–2
// new ones, a window the drop sometimes empties.
func window(i, fi int) []int64 {
	seq := make([]int64, 2*i+5)
	for k := range seq {
		seq[k] = int64(fi*1000 + k*7)
	}
	lo, hi := 0, 5
	for r := 1; r <= i; r++ {
		lo, hi = min(lo+r%4, hi), hi+r%3
	}
	return seq[lo:hi]
}

// TestRunsRoundTrip: a sparse row stated by reference — a repeat, a shift
// of the row before or a back-reference to an earlier row — decodes,
// through ReadAll and stripe by stripe from the last to the first and
// under a projection onto one column, to the rows written, whatever its
// shape. A reference that would cross a stripe boundary is restated
// literally: a stripe whose first row referred back would not decode. A
// reader believes no more than maxInflateRatio values a stored byte, so a
// column whose references expand past that — a list longer than
// maxInflateRatio, repeated as often — is written without them, every row
// a literal at a byte or more an ID, and read back too. That holds for a
// stream of one repeated ID, whose every ID is offset 0 over its base,
// only because the width of a stream holding an ID is at least one byte:
// at width 0 its IDs would cost no stored byte, and nothing would bound
// them.
func TestRunsRoundTrip(t *testing.T) {
	schema := testSchema()
	base := testSamples(t, schema, 6)[:30]
	own := func(i, fi int) []int64 { return base[i].Sparse[fi] }
	const long = 2*maxInflateRatio + 64 // long·(long+1) values in some 2·long bytes
	longList := func(id int64) []datagen.Sample {
		rows := withLists(base[:1], func(_, fi int) []int64 {
			if fi == 0 {
				return slices.Repeat([]int64{id}, long)
			}
			return nil
		})
		return slices.Repeat(rows, long+1)
	}
	for _, tc := range []struct {
		name       string
		rows       []datagen.Sample
		stripeRows int
		literal    bool // column 0 is written without references
	}{
		{"run across two stripe boundaries", withLists(base, func(i, fi int) []int64 {
			return own(min(max(i, 5), 19), fi) // rows 5..19 repeat row 5
		}), 8, false},
		{"runs of empty lists", withLists(base, func(i, fi int) []int64 {
			if i%10 < 6 {
				return nil
			}
			return own(i, fi)
		}), 8, false},
		{"every row equal", withLists(base, func(_, fi int) []int64 { return own(0, fi) }), 8, false},
		{"alternating rows", withLists(base, func(i, fi int) []int64 { return own(i%2, fi) }), 8, false},
		{"sliding windows", withLists(base, window), 16, false},
		{"two sessions' windows interleaved", withLists(base, func(i, fi int) []int64 { return window(i/2, fi+7*(i%2)) }), 16, false},
		{"a list longer than maxInflateRatio, repeated", longList(0), long + 1, true},
		{"one ID that long, repeated", longList(1<<40 + 3), long + 1, true},
	} {
		data, stats := writeFile(t, schema, tc.rows, tc.stripeRows)
		if stored, values := stats.Columns[firstSparse].CompressedBytes, int64(long*(long+1)); tc.literal && stored < values {
			t.Fatalf("%s: %d values stored in %d bytes: the column kept its references", tc.name, values, stored)
		}
		r, err := OpenReader(data)
		if err != nil {
			t.Fatal(err)
		}
		all, err := r.ReadAll()
		if err != nil || !slices.EqualFunc(all, tc.rows, samplesEqual) {
			t.Fatalf("%s: ReadAll returned other rows than were written (%v)", tc.name, err)
		}
		for _, cols := range [][]int{allColumns(len(schema.Sparse)), {1}} {
			for i := r.NumStripes() - 1; i >= 0; i-- {
				got, err := r.StripeColumns(i, cols)
				if err != nil {
					t.Fatalf("%s: stripe %d cols %v: %v", tc.name, i, cols, err)
				}
				lo := i * tc.stripeRows
				want, err := ChunkFromSamples(tc.rows[lo:lo+r.StripeRows(i)], r.SparseKeys(), r.DenseCount(), cols)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.AppendTo(nil), want.AppendTo(nil)) {
					t.Fatalf("%s: stripe %d cols %v decodes to other rows than were written", tc.name, i, cols)
				}
			}
		}
	}
}

// rowKinds counts the rows of every sparse stream of a file by what their
// headers state them as — literal, repeat (each row of a run), shift of
// the previous row, back-reference — and sums the streams' stored bytes.
func rowKinds(t *testing.T, data []byte) (kinds map[string]int, stored int) {
	t.Helper()
	r, err := OpenReader(data)
	if err != nil {
		t.Fatal(err)
	}
	kinds = map[string]int{}
	for i := range r.NumStripes() {
		off, n := r.StripeByteRange(i)
		src, err := wholeStripe(data[off:off+n], firstSparse+len(r.keys))
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range src.streams[firstSparse:] {
			stored += len(raw)
			width := uint64(raw[0])
			sr := byteReader{buf: raw, pos: 1}
			if width > 0 {
				sr.varint()
			}
			for i := 0; i < src.rows; {
				count, dist, drop, tail, err := sr.row()
				if err != nil {
					t.Fatal(err)
				}
				i += int(count)
				switch {
				case dist == 0:
					kinds["literal"]++
				case dist == 1 && drop == 0 && tail == 0:
					kinds["repeat"] += int(count)
				case dist == 1:
					kinds["shift"]++
				default:
					kinds["back-reference"]++
				}
				sr.pos += int(tail * width)
			}
		}
	}
	return kinds, stored
}

// TestReferencesShrinkSparseStreams: on a session-clustered table whose
// sequence features slide (datagen.ShiftAppend), the encoder states rows
// as shifts of the row before, and its sparse streams are strictly
// smaller than the same rows written without references; with sessions
// interleaved, as the baseline table holds them, it states rows as
// back-references. An encoder that never referred to a row fails here.
func TestReferencesShrinkSparseStreams(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 40)
	write := func(rows []datagen.Sample, refer bool) (map[string]int, int) {
		w, err := NewFileWriter(schema, WriterOptions{StripeRows: 128})
		if err != nil {
			t.Fatal(err)
		}
		w.literal = !refer
		if err := w.WriteRows(rows); err != nil {
			t.Fatal(err)
		}
		data, _, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return rowKinds(t, data)
	}
	clustered := etl.ClusterBySession(samples)
	with, withBytes := write(clustered, true)
	without, withoutBytes := write(clustered, false)
	if with["shift"] == 0 || without["literal"] != len(clustered)*len(schema.Sparse) {
		t.Fatalf("clustered rows, with references %v, without %v: want shifts, and only literals", with, without)
	}
	if withBytes >= withoutBytes {
		t.Fatalf("clustered sparse streams of %d bytes with references, %d without", withBytes, withoutBytes)
	}
	if interleaved, _ := write(samples, true); interleaved["back-reference"] == 0 {
		t.Fatalf("interleaved rows state no back-reference: %v", interleaved)
	}
	t.Logf("clustered: %v, %d sparse bytes (%d without references)", with, withBytes, withoutBytes)
}

// TestRawBytesArePlain: a sparse column's RawBytes is the size of its
// plain encoding — a varint length and the zigzag varint IDs of every row
// — whether or not its repeated rows were written as runs, so clustering
// changes no raw size and the compression ratio still compares the same
// bytes.
func TestRawBytesArePlain(t *testing.T) {
	schema := testSchema()
	samples := testSamples(t, schema, 40)
	for name, rows := range map[string][]datagen.Sample{"interleaved": samples, "clustered": etl.ClusterBySession(samples)} {
		_, stats := writeFile(t, schema, rows, 64)
		for fi, f := range schema.Sparse {
			var plain []byte
			for _, s := range rows {
				plain = putUvarint(plain, uint64(len(s.Sparse[fi])))
				for _, id := range s.Sparse[fi] {
					plain = putVarint(plain, id)
				}
			}
			if got := stats.Columns[firstSparse+fi].RawBytes; got != int64(len(plain)) {
				t.Errorf("%s %s: RawBytes %d, plain encoding %d", name, f.Key, got, len(plain))
			}
		}
	}
}

// readPartition reads every file of a partition back into rows, in catalog
// order.
func readPartition(store *lakefs.Store, catalog *lakefs.Catalog, table string, hour int64) ([]datagen.Sample, error) {
	files, err := catalog.Files(table, hour)
	if err != nil {
		return nil, err
	}
	var out []datagen.Sample
	for _, f := range files {
		data, err := store.Get(f)
		if err != nil {
			return nil, err
		}
		r, err := OpenReader(data)
		if err != nil {
			return nil, err
		}
		rows, err := r.ReadAll()
		if err != nil {
			return nil, err
		}
		out = append(out, rows...)
	}
	return out, nil
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

	got, err := readPartition(store, catalog, "tbl", 5)
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
	got, err := readPartition(store, catalog, "tbl", 0)
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

// ladderStripes writes the benchmark ladder's table (core.RM1's schema,
// session-clustered) in stripes of stripeRows rows, at least two of them,
// and returns the file's reader with the ladder's narrow spec's 5 of 25
// features as a projection.
func ladderStripes(tb testing.TB, stripeRows int) (r *FileReader, narrow []int) {
	tb.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{ // core.RM1().SchemaCfg; core imports this package
		UserSeq: 9, UserElem: 12, Item: 4, Dense: 8, SeqLen: 24, SeqGroupSize: 3, Seed: 101,
	})
	samples := etl.ClusterBySession(datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: max(40, stripeRows/8), MeanSamplesPerSession: 16.5, Seed: 1001,
	}).GeneratePartition())
	if len(samples) < 2*stripeRows {
		tb.Fatalf("generated %d rows, need two stripes", len(samples))
	}
	data, _ := writeFile(tb, schema, samples, stripeRows)
	r, err := OpenReader(data)
	if err != nil {
		tb.Fatal(err)
	}
	keys := r.SparseKeys()
	for _, f := range []string{"item_0", "user_seq_0", "user_seq_1", "user_seq_2", "user_elem_0"} {
		narrow = append(narrow, slices.Index(keys, f))
	}
	return r, narrow
}

// BenchmarkStripeColumns is the fill's decode unit with nothing around it —
// no store, no fetch model: one 128-row stripe of the benchmark ladder's
// table read from memory, under the full projection and under the ladder's
// narrow spec's 5 of 25 features.
func BenchmarkStripeColumns(b *testing.B) {
	const stripeRows = 128
	r, narrow := ladderStripes(b, stripeRows)
	for _, bc := range []struct {
		name string
		cols []int
	}{{"full", allColumns(len(r.keys))}, {"5of25", narrow}} {
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

// TestStripeDecodeAllocs: a stripe decode allocates a few objects a
// decoded column and a few for the stripe, whatever its rows: every stream
// is read where it was fetched, with no inflate and no buffer of its own.
// One stripe of the ladder's table under the full projection and under
// its 5 of 25 features allocates at most the counts below, and the same
// at 128 rows and at 1024.
func TestStripeDecodeAllocs(t *testing.T) {
	want := map[string]float64{"full": 57, "5of25": 22}
	got := map[string]float64{}
	for _, stripeRows := range []int{128, 1024} {
		r, narrow := ladderStripes(t, stripeRows)
		for name, cols := range map[string][]int{"full": allColumns(len(r.keys)), "5of25": narrow} {
			allocs := testing.AllocsPerRun(20, func() {
				if c, err := r.StripeColumns(1, cols); err != nil || c.Rows() != stripeRows {
					t.Fatalf("%s: stripe of %d rows, %v", name, c.Rows(), err)
				}
			})
			if allocs > want[name] {
				t.Errorf("%d-row stripe, %s: %v allocs a decode, want at most %v", stripeRows, name, allocs, want[name])
			}
			if prev, ok := got[name]; ok && allocs != prev {
				t.Errorf("%s: %v allocs a decode at %d rows, %v at 128", name, allocs, stripeRows, prev)
			}
			got[name] = allocs
		}
	}
}

// TestFileKnownAnswer pins the bytes of one small file: testSchema's rows
// of three sessions in stripes of 7 rows. Every stream's grammar, the
// stripe header, the row-key section, the footer and the trailer reach
// these bytes, so a change that moves the hash changes the file format —
// a new trailerMagic and a re-land, not a test update. Every byte is the
// format's own encoding, with no compressor's output among them, so the
// pin holds on any toolchain.
func TestFileKnownAnswer(t *testing.T) {
	schema := testSchema()
	data, _ := writeFile(t, schema, testSamples(t, schema, 3), 7)
	const want = "586e8e3d7dbfc55e44d58d2a0d03e7c4381abe724c263e3f17fc4e0ac10f6599"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("sha256 of the %d-byte file = %s, want %s", len(data), got, want)
	}
}
