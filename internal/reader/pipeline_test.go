package reader

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// fullSpec exercises every conversion path at once: plain KJT features,
// two dedup groups, a partial feature, and transforms over all three.
func fullSpec() Spec {
	return Spec{
		Table:          "tbl",
		BatchSize:      64,
		SparseFeatures: []string{"item_0"},
		DedupSparseFeatures: [][]string{
			{"user_seq_0", "user_seq_1"},
			{"user_elem_0", "user_elem_1", "user_elem_2"},
		},
		PartialDedupFeatures: []string{"item_1"},
		SparseTransforms: []SparseTransform{
			HashMod{Features: []string{"user_seq_0", "item_0", "item_1"}, TableSize: 1 << 20},
		},
	}
}

// counters extracts the deterministic Stats fields (everything except the
// wall-clock stage times, which legitimately differ between serial and
// queued execution).
func counters(s Stats) [6]int64 {
	return [6]int64{s.ReadBytes, s.SentBytes, s.RowsDecoded, s.BatchesProduced, s.ConvertValues, s.ProcessOps}
}

func encodeBatches(t *testing.T, batches []*Batch) [][]byte {
	t.Helper()
	out := make([][]byte, len(batches))
	for i, b := range batches {
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// TestPipelinedRunMatchesSerial is the determinism contract of the reader
// pipeline: a ScanQueue of workers, each running fill → convert → process over
// the files it claims at the carry the queue's chain hands it, ahead of the
// cutter that joins them, must emit byte-identical batches in the same order,
// with identical deterministic Stats counters, as the serial Run — whether or
// not the batch divides the files, and however the files' rows are cut into
// stripes: the table is scanned with stripes that divide the batch, that do
// not, that hold two batches (as newTestEnv writes it) and that exceed the
// file, and the stream is the same under all four. It also pins where the
// work is done: the cutter's own reader converts the batches that hold rows of
// two files and the final short one — none at all when the batch divides the
// files — and decodes nothing. Run with -race this also shakes out data races
// in the pipeline.
func TestPipelinedRunMatchesSerial(t *testing.T) {
	env := newTestEnv(t, 200, true)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	files = files[:len(files)-1] // the partition's short last file: every file left has 256 rows
	fileRows := fileRowCounts(t, env.store, files)
	serial := func(spec Spec) ([]*Batch, Stats) {
		r, err := NewReader(env.store, spec)
		if err != nil {
			t.Fatal(err)
		}
		var batches []*Batch
		if err := r.Run(context.Background(), files, func(b *Batch) error { batches = append(batches, b); return nil }); err != nil {
			t.Fatal(err)
		}
		return batches, r.Stats()
	}

	for _, align := range []struct {
		name  string
		batch int
	}{
		{"aligned", 64}, // 256 rows/file % 64 == 0
		{"misaligned", 48} /* 256 % 48 != 0: rows carry across files */} {
		spec := fullSpec()
		spec.BatchSize = align.batch
		asWritten, _ := serial(spec)
		wantAnyShape := encodeBatches(t, asWritten)
		wantCut := cutterBatches(fileRows, align.batch)
		if aligned := align.batch == 64; len(files) < 3 || aligned != (wantCut == 0) {
			t.Fatalf("%s: %d files of which the cutter is to convert %d batches", align.name, len(files), wantCut)
		}

		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s, queue of %d", align.name, workers), func(t *testing.T) {
				for shape, stripeRows := range stripeShapes(align.batch) {
					restripe(t, env.store, env.schema, files, stripeRows)
					batchesSerial, statsSerial := serial(spec)
					mustEqualEncodings(t, "serial, stripe "+shape, encodeBatches(t, batchesSerial), wantAnyShape)

					var batches []*Batch
					cut, work, err := runQueued(context.Background(), t, env.store, spec, files, workers, func(b *Batch) error {
						batches = append(batches, b)
						return nil
					})
					if err != nil {
						t.Fatalf("stripe %s: %v", shape, err)
					}
					mustEqualEncodings(t, "queued, stripe "+shape, encodeBatches(t, batches), wantAnyShape)
					if cut.BatchesProduced != wantCut || cut.RowsDecoded != 0 || (wantCut == 0 && (cut.ConvertValues != 0 || cut.ProcessOps != 0)) {
						t.Fatalf("stripe %s: the cutter's own reader did %+v; want %d batches converted and nothing else", shape, cut, wantCut)
					}
					work.Add(cut)
					if got, want := counters(work), counters(statsSerial); got != want {
						t.Fatalf("stripe %s: stats counters differ: queued %v serial %v", shape, got, want)
					}
				}
			})
		}
	}
}

// TestPipelinedEmitErrorAborts mirrors TestEmitErrorAborts for the queued
// scan: an emit error must abort promptly and not leak a worker (runQueued
// returns once they have exited; the -race build would flag one still writing
// its stats while the test reads them).
func TestPipelinedEmitErrorAborts(t *testing.T) {
	env := newTestEnv(t, 20, true)
	files, _ := env.catalog.AllFiles("tbl")
	wantErr := fmt.Errorf("stop")
	calls := 0
	_, work, err := runQueued(context.Background(), t, env.store, baseSpec(), files, 2, func(b *Batch) error {
		calls++
		return wantErr
	})
	if err != wantErr {
		t.Fatalf("err = %v want %v", err, wantErr)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after error", calls)
	}
	if work.BatchesProduced < 1 {
		t.Fatalf("BatchesProduced = %d want the emitted batch at least", work.BatchesProduced)
	}
}

// TestPipelinedUnknownFeature checks error propagation out of a worker's
// scan, through its deposit, to the cutter — with the next file's worker
// parked on a carry chain the failed file never feeds.
func TestPipelinedUnknownFeature(t *testing.T) {
	env := newTestEnv(t, 5, true)
	spec := baseSpec()
	spec.DedupSparseFeatures = append(spec.DedupSparseFeatures, []string{"not_a_feature"})
	files, _ := env.catalog.AllFiles("tbl")
	if _, _, err := runQueued(context.Background(), t, env.store, spec, files, 2, func(*Batch) error { return nil }); err == nil {
		t.Fatal("expected error for unknown feature")
	}
}

// BenchmarkReaderRunSerial is the serial reference scan over one table.
func BenchmarkReaderRunSerial(b *testing.B) {
	env := newTestEnv(b, 100, true)
	spec := baseSpec()
	files, _ := env.catalog.AllFiles("tbl")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(env.store, spec)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Run(context.Background(), files, func(*Batch) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
