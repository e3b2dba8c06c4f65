package reader

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
)

// projectionEnv is one randomly shaped table: schema, stripe size, rows
// per file and a spec that consumes a random subset of the features, split
// at random between plain KJT features, dedup groups and partials.
type projectionEnv struct {
	store   *lakefs.Store
	files   []string
	schema  *datagen.Schema
	spec    Spec
	full    bool // the spec consumes every column
	aligned bool // the batch size divides rows-per-file
}

func randomProjectionEnv(t *testing.T, rng *rand.Rand) projectionEnv {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: rng.Intn(3), UserElem: rng.Intn(4), Item: 1 + rng.Intn(3),
		Dense: rng.Intn(5), SeqLen: 4 + rng.Intn(12), Seed: rng.Int63(),
	})
	samples := etl.ClusterBySession(datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 20 + rng.Intn(40), MeanSamplesPerSession: 5, Seed: rng.Int63(),
	}).GeneratePartition())

	env := projectionEnv{store: lakefs.NewStore(), schema: schema, aligned: rng.Intn(2) == 0}
	batch := 8 + rng.Intn(40)
	rowsPerFile := batch * (1 + rng.Intn(4))
	if !env.aligned {
		rowsPerFile += 1 + rng.Intn(batch-1)
	}
	catalog := lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(env.store, catalog, "tbl", 0, schema, samples, dwrf.TableOptions{
		RowsPerFile: rowsPerFile, Writer: dwrf.WriterOptions{StripeRows: 1 + rng.Intn(2*batch)},
	}); err != nil {
		t.Fatal(err)
	}
	var err error
	if env.files, err = catalog.AllFiles("tbl"); err != nil {
		t.Fatal(err)
	}

	// Deal a random subset of the features (sometimes all of them), in
	// random order, into the three conversion paths.
	keys := schema.SparseKeys()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	take := 1 + rng.Intn(len(keys))
	if rng.Intn(4) == 0 {
		take = len(keys)
	}
	env.full = take == len(keys)
	env.spec = Spec{Table: "tbl", BatchSize: batch}
	for _, k := range keys[:take] {
		switch groups := env.spec.DedupSparseFeatures; rng.Intn(4) {
		case 0:
			env.spec.SparseFeatures = append(env.spec.SparseFeatures, k)
		case 1:
			env.spec.PartialDedupFeatures = append(env.spec.PartialDedupFeatures, k)
		case 2:
			if len(groups) > 0 {
				groups[len(groups)-1] = append(groups[len(groups)-1], k)
				break
			}
			fallthrough
		default:
			env.spec.DedupSparseFeatures = append(groups, []string{k})
		}
	}
	if err := env.spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return env
}

// fullDecodeBatches is the reference: every file fetched whole and decoded
// in full through the row adapters, the rows cut into batches across file
// boundaries, each converted by ProduceBatch.
func fullDecodeBatches(t *testing.T, env projectionEnv) [][]byte {
	t.Helper()
	var rows []datagen.Sample
	var keys []string
	var dense int
	for _, f := range env.files {
		data, err := env.store.Get(f)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := dwrf.OpenReader(data)
		if err != nil {
			t.Fatal(err)
		}
		all, err := fr.ReadAllContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, all...)
		keys, dense = fr.SparseKeys(), fr.DenseCount()
	}
	r, err := NewReader(env.store, env.spec)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*Batch
	for lo := 0; lo < len(rows); lo += env.spec.BatchSize {
		b, err := r.ProduceBatch(rows[lo:min(lo+env.spec.BatchSize, len(rows))], keys, dense)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, b)
	}
	return encodeBatches(t, batches)
}

// rowKeySection is what dwrf.FileReader.ReadRowKeys fetches of the DWRF
// file data: its row-key section, which no batch fill fetches.
func rowKeySection(t *testing.T, data []byte) int64 {
	t.Helper()
	var fetched int64
	fr, err := dwrf.Open(int64(len(data)), func(off, n int64) ([]byte, error) {
		fetched += n
		return data[off : off+n], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fetched = 0
	if err := fr.ReadRowKeys(make([]datagen.Sample, fr.NumRows())); err != nil {
		t.Fatal(err)
	}
	return fetched
}

func mustEqualEncodings(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d batches, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: batch %d differs from the full-decode reference", what, i)
		}
	}
}

// TestProjectedFillMatchesFullFill is the projection pushdown's contract,
// over random schemas, stripe sizes, aligned and misaligned batch sizes
// and random feature subsets: the projected, columnar path emits batches
// byte-identical to batches built from a full decode of the same files,
// whichever way it is driven (serial Run, a worker pool behind RunQueue,
// the ScanFile/FillFile/ProduceBatch composition), with identical
// deterministic counters; and it fetches at most each file's size less
// its row-key section — exactly that when the spec consumes every column,
// strictly less otherwise — which the store's own read counter confirms,
// while FillFile, which returns rows whole, fetches that section on top.
func TestProjectedFillMatchesFullFill(t *testing.T) {
	rng := rand.New(rand.NewSource(20260926))
	ctx := context.Background()
	var sawFull, sawPartial, sawAligned, sawMisaligned bool
	for trial := 0; trial < 40; trial++ {
		env := randomProjectionEnv(t, rng)
		sawFull, sawPartial = sawFull || env.full, sawPartial || !env.full
		sawAligned, sawMisaligned = sawAligned || env.aligned, sawMisaligned || !env.aligned
		what := fmt.Sprintf("trial %d (%d features, spec %s)", trial, len(env.schema.Sparse), env.spec.Fingerprint())
		want := fullDecodeBatches(t, env)

		// Serial Run, one file at a time so each file's bytes are checked.
		var serial []*Batch
		var readBytes int64
		for _, f := range env.files {
			data, err := env.store.Get(f)
			if err != nil {
				t.Fatal(err)
			}
			size, section := int64(len(data)), rowKeySection(t, data)
			env.store.ResetIO()
			one, err := NewReader(env.store, env.spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := one.fillRows(ctx, f); err != nil {
				t.Fatal(err)
			}
			got := one.Stats().ReadBytes
			if got != env.store.Stats().ReadBytes {
				t.Fatalf("%s: reader counted %d bytes read, the store served %d", what, got, env.store.Stats().ReadBytes)
			}
			if got > size-section || (got == size-section) != env.full {
				t.Fatalf("%s: fetched %d of %d bytes (%d of them row keys), full projection = %v", what, got, size, section, env.full)
			}
			readBytes += got

			// FillFile returns rows whole: the same fill plus the row-key
			// section, whose keys are the file's.
			keyed, err := NewReader(env.store, env.spec)
			if err != nil {
				t.Fatal(err)
			}
			rows, _, _, err := keyed.FillFile(ctx, f)
			if err != nil {
				t.Fatal(err)
			}
			if extra := keyed.Stats().ReadBytes - got; extra != section {
				t.Fatalf("%s: FillFile fetched %d bytes past the fill, the row-key section is %d", what, extra, section)
			}
			fr, err := dwrf.OpenReader(data)
			if err != nil {
				t.Fatal(err)
			}
			whole, err := fr.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(whole) {
				t.Fatalf("%s: FillFile returned %d rows, ReadAll %d", what, len(rows), len(whole))
			}
			for i, s := range rows {
				w := whole[i]
				if s.SessionID != w.SessionID || s.UserID != w.UserID || s.RequestID != w.RequestID || s.Timestamp != w.Timestamp {
					t.Fatalf("%s: FillFile row %d keys (%d %d %d %d), ReadAll (%d %d %d %d)", what, i,
						s.SessionID, s.UserID, s.RequestID, s.Timestamp, w.SessionID, w.UserID, w.RequestID, w.Timestamp)
				}
			}
		}
		r, err := NewReader(env.store, env.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(ctx, env.files, func(b *Batch) error { serial = append(serial, b); return nil }); err != nil {
			t.Fatal(err)
		}
		mustEqualEncodings(t, what+" serial Run", encodeBatches(t, serial), want)
		wantStats := r.Stats()
		if wantStats.ReadBytes != readBytes {
			t.Fatalf("%s: Run read %d bytes, its files one by one %d", what, wantStats.ReadBytes, readBytes)
		}

		// RunQueue: three workers, one assembler.
		var queued []*Batch
		cut, work, err := runQueued(ctx, t, env.store, env.spec, env.files, 3, func(b *Batch) error { queued = append(queued, b); return nil })
		if err != nil {
			t.Fatal(err)
		}
		mustEqualEncodings(t, what+" RunQueue", encodeBatches(t, queued), want)
		work.Add(cut)
		if counters(work) != counters(wantStats) {
			t.Fatalf("%s: queued counters %v, serial %v", what, counters(work), counters(wantStats))
		}

		// The shared-scan composition.
		composer, err := NewReader(env.store, env.spec)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualEncodings(t, what+" composed ScanFile", encodeBatches(t, composeScan(t, composer, env.files)), want)
		if counters(composer.Stats()) != counters(wantStats) {
			t.Fatalf("%s: composed counters %v, serial %v", what, counters(composer.Stats()), counters(wantStats))
		}
	}
	if !sawFull || !sawPartial || !sawAligned || !sawMisaligned {
		t.Fatalf("trials missed a case: full %v partial %v aligned %v misaligned %v", sawFull, sawPartial, sawAligned, sawMisaligned)
	}
}

// TestNarrowSpecFetchShare: on the benchmark ladder's table (core.RM1's
// schema — spelled out because core imports this package — clustered,
// 1024-row files of 128-row stripes) the ladder's narrow spec, 5 of 25
// features, fetches at most 0.40 of the stored bytes.
func TestNarrowSpecFetchShare(t *testing.T) {
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 9, UserElem: 12, Item: 4, Dense: 8, SeqLen: 24, SeqGroupSize: 3, Seed: 101,
	})
	samples := etl.ClusterBySession(datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions: 250, MeanSamplesPerSession: 16.5, Seed: 3,
	}).GeneratePartition())
	store, catalog := lakefs.NewStore(), lakefs.NewCatalog()
	if _, err := dwrf.WritePartition(store, catalog, "train", 0, schema, samples, dwrf.TableOptions{
		RowsPerFile: 1024, Writer: dwrf.WriterOptions{StripeRows: 128},
	}); err != nil {
		t.Fatal(err)
	}
	files, err := catalog.AllFiles("train")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(store, Spec{
		Table: "train", BatchSize: 256,
		SparseFeatures:      []string{"item_0"},
		DedupSparseFeatures: [][]string{{"user_seq_0", "user_seq_1", "user_seq_2"}, {"user_elem_0"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background(), files, func(*Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	stored := store.Stats().StoredBytes
	share := float64(r.Stats().ReadBytes) / float64(stored)
	t.Logf("narrow spec fetched %d of %d stored bytes (%.3f), %d store reads for %d files",
		r.Stats().ReadBytes, stored, share, store.Stats().ReadOps, len(files))
	if share > 0.40 {
		t.Fatalf("narrow spec fetched %.3f of the stored bytes, want <= 0.40", share)
	}
}

// TestFileScanMemBytesChargesTail: MemBytes is the batches' wire bytes
// plus, per tail row, the struct, a list header per schema feature
// (consumed or not) and each list's capacity — which for the compacted,
// capacity-clamped tail ScanFile keeps is exactly its own payload.
func TestFileScanMemBytesChargesTail(t *testing.T) {
	env := newTestEnv(t, 60, true)
	spec := baseSpec()
	spec.BatchSize = 48 // 256-row files leave a 16-row tail
	r, err := NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := env.catalog.AllFiles("tbl")
	fs, err := r.ScanFile(context.Background(), files[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	_, batches, tail := split(fs)
	if tail.Rows() != 256%48 {
		t.Fatalf("tail holds %d rows, want %d", tail.Rows(), 256%48)
	}
	var want int64
	for _, b := range batches {
		want += int64(b.WireBytes())
	}
	for _, s := range tail.Samples() {
		if len(s.Sparse) != len(tail.Keys()) {
			t.Fatalf("tail row is %d features wide, schema %d", len(s.Sparse), len(tail.Keys()))
		}
		want += 56 + 4*int64(len(s.Dense))
		for _, lst := range s.Sparse {
			want += 24 + 8*int64(len(lst))
		}
	}
	if got := fs.MemBytes(); got != want {
		t.Fatalf("MemBytes = %d, the batches plus the tail's own payload are %d", got, want)
	}
}
