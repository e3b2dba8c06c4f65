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
// pipelined execution).
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
// pipeline: with prefetching fill and parallel per-group conversion, Run
// must emit byte-identical batches in the same order, with identical
// deterministic Stats counters, as the serial reference path — however the
// files' rows are cut into stripes, the unit the fill worker hands over: the
// table is scanned with stripes that divide the batch, that do not, that
// hold two batches (as newTestEnv writes it) and that exceed the file, and
// the stream is the same under all four. Run with -race this also shakes
// out data races in the pipeline.
func TestPipelinedRunMatchesSerial(t *testing.T) {
	env := newTestEnv(t, 60, true)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	asWritten, _ := runAll(t, env, fullSpec())
	wantAnyShape := encodeBatches(t, asWritten)

	for _, cfg := range []struct {
		name                      string
		fillAhead, convertWorkers int
	}{
		{"fill-ahead only", 4, 0},
		{"convert workers only", 0, 4},
		{"full pipeline", 4, 4},
		{"more workers than tasks", 8, 16},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			for shape, stripeRows := range stripeShapes(fullSpec().BatchSize) {
				restripe(t, env.store, env.schema, files, stripeRows)
				serialSpec := fullSpec()
				batchesSerial, statsSerial := runAll(t, env, serialSpec)
				mustEqualEncodings(t, "serial, stripe "+shape, encodeBatches(t, batchesSerial), wantAnyShape)

				spec := fullSpec()
				spec.FillAhead = cfg.fillAhead
				spec.ConvertWorkers = cfg.convertWorkers
				batches, stats := runAll(t, env, spec)

				if len(batches) != len(batchesSerial) {
					t.Fatalf("stripe %s: pipelined produced %d batches, serial %d", shape, len(batches), len(batchesSerial))
				}
				wantEnc := encodeBatches(t, batchesSerial)
				gotEnc := encodeBatches(t, batches)
				for i := range wantEnc {
					if !bytes.Equal(gotEnc[i], wantEnc[i]) {
						t.Fatalf("stripe %s: batch %d differs between pipelined and serial paths", shape, i)
					}
				}
				if got, want := counters(stats), counters(statsSerial); got != want {
					t.Fatalf("stripe %s: stats counters differ: pipelined %v serial %v", shape, got, want)
				}
			}
		})
	}
}

// TestPipelinedEmitErrorAborts mirrors TestEmitErrorAborts for the
// pipelined path: an emit error must abort promptly and not leak the fill
// goroutine (the -race build would flag a leaked goroutine still writing
// fill stats while the test reads them).
func TestPipelinedEmitErrorAborts(t *testing.T) {
	env := newTestEnv(t, 20, true)
	spec := baseSpec()
	spec.FillAhead = 2
	spec.ConvertWorkers = 2
	r, err := NewReader(env.store, spec)
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
	if r.Stats().BatchesProduced != 1 {
		t.Fatalf("BatchesProduced = %d want 1", r.Stats().BatchesProduced)
	}
}

// TestPipelinedUnknownFeature checks error propagation out of parallel
// convert tasks.
func TestPipelinedUnknownFeature(t *testing.T) {
	env := newTestEnv(t, 5, true)
	spec := baseSpec()
	spec.DedupSparseFeatures = append(spec.DedupSparseFeatures, []string{"not_a_feature"})
	spec.FillAhead = 2
	spec.ConvertWorkers = 4
	r, err := NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := env.catalog.AllFiles("tbl")
	if err := r.Run(context.Background(), files, func(*Batch) error { return nil }); err == nil {
		t.Fatal("expected error for unknown feature")
	}
}

// TestSpecValidatePipelineFields rejects negative worker counts.
func TestSpecValidatePipelineFields(t *testing.T) {
	spec := baseSpec()
	spec.FillAhead = -1
	if err := spec.Validate(); err == nil {
		t.Fatal("expected error for negative FillAhead")
	}
	spec = baseSpec()
	spec.ConvertWorkers = -2
	if err := spec.Validate(); err == nil {
		t.Fatal("expected error for negative ConvertWorkers")
	}
}

// BenchmarkReaderSerialVsPipelined reports both paths side by side over
// the same table.
func benchReaderRun(b *testing.B, fillAhead, convertWorkers int) {
	env := newTestEnv(b, 100, true)
	spec := baseSpec()
	spec.FillAhead = fillAhead
	spec.ConvertWorkers = convertWorkers
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

func BenchmarkReaderRunSerial(b *testing.B)    { benchReaderRun(b, 0, 0) }
func BenchmarkReaderRunPipelined(b *testing.B) { benchReaderRun(b, 4, 4) }
