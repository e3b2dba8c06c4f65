package reader

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/datagen"
)

func TestFingerprintCoversOutputFields(t *testing.T) {
	base := func() Spec {
		s := baseSpec()
		s.SparseTransforms = []SparseTransform{HashMod{Features: []string{"item_0"}, TableSize: 1 << 10}}
		s.DenseTransforms = []DenseTransform{LogNormalize{}}
		return s
	}

	// Fields that never change batch output must not change the key.
	same := []func(*Spec){
		func(s *Spec) { s.Table = "other_table" },
	}
	for i, mutate := range same {
		a, b := base(), base()
		mutate(&b)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("mutation %d changed fingerprint but cannot change output", i)
		}
	}

	// Fields that do change output must change the key.
	diff := []func(*Spec){
		func(s *Spec) { s.BatchSize = 32 },
		func(s *Spec) { s.SparseFeatures = []string{"item_0"} },
		func(s *Spec) { s.DedupSparseFeatures = [][]string{{"user_seq_0"}, {"user_seq_1"}} },
		func(s *Spec) { s.PartialDedupFeatures = []string{"item_1"}; s.SparseFeatures = []string{"item_0"} },
		func(s *Spec) {
			s.SparseTransforms = []SparseTransform{HashMod{Features: []string{"item_0"}, TableSize: 1 << 11}}
		},
		func(s *Spec) { s.SparseTransforms = nil },
		func(s *Spec) { s.DenseTransforms = nil },
	}
	for i, mutate := range diff {
		a, b := base(), base()
		mutate(&b)
		if a.Fingerprint() == b.Fingerprint() {
			t.Errorf("mutation %d left fingerprint unchanged but changes output", i)
		}
	}
}

// composeScan rebuilds a multi-file scan from the file-aligned primitives
// the shared-scan cache uses: ScanFile when no rows are carried in,
// FillFile + ProduceBatch when batch boundaries straddle files. It is the
// reference shape of the dpp cached-worker loop.
func composeScan(t *testing.T, r *Reader, files []string) []*Batch {
	t.Helper()
	ctx := context.Background()
	bs := r.spec.BatchSize
	var out []*Batch
	var carry []datagen.Sample
	var keys []string
	var dense int
	for _, f := range files {
		if len(carry) == 0 {
			fs, err := r.ScanFile(ctx, f, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if keys == nil {
				keys, dense = fs.Tail.Keys(), fs.Tail.DenseWidth()
			}
			out = append(out, fs.Batches...)
			carry = append([]datagen.Sample(nil), fs.Tail.Samples()...)
			continue
		}
		samples, fkeys, fdense, err := r.FillFile(ctx, f)
		if err != nil {
			t.Fatal(err)
		}
		if keys == nil {
			keys, dense = fkeys, fdense
		}
		carry = append(carry, samples...)
		for len(carry) >= bs {
			b, err := r.ProduceBatch(carry[:bs], keys, dense)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
			carry = carry[bs:]
		}
	}
	if len(carry) > 0 {
		b, err := r.ProduceBatch(carry, keys, dense)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// TestScanFileCompositionMatchesRun pins the shared-scan soundness
// argument: a scan assembled from ScanFile/FillFile/ProduceBatch is
// byte-identical to a serial Run over the same files, with identical
// deterministic Stats counters — both when files align to the batch size
// (every boundary hits the file-aligned fast path) and when they don't
// (rows carry across files).
func TestScanFileCompositionMatchesRun(t *testing.T) {
	env := newTestEnv(t, 60, true)
	for _, tc := range []struct {
		name  string
		batch int
	}{
		{"aligned", 64}, // 256 rows/file % 64 == 0
		{"misaligned", 48} /* 256 % 48 != 0: tails carry across files */} {
		t.Run(tc.name, func(t *testing.T) {
			spec := baseSpec()
			spec.BatchSize = tc.batch
			spec.SparseTransforms = []SparseTransform{HashMod{Features: []string{"item_0"}, TableSize: 1 << 16}}
			want, wantStats := runAll(t, env, spec)

			r, err := NewReader(env.store, spec)
			if err != nil {
				t.Fatal(err)
			}
			files, err := env.catalog.AllFiles(spec.Table)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) < 2 {
				t.Fatal("need multiple files to exercise carry")
			}
			got := composeScan(t, r, files)

			if len(got) != len(want) {
				t.Fatalf("composed scan produced %d batches, Run produced %d", len(got), len(want))
			}
			for i := range want {
				var wb, gb bytes.Buffer
				if err := want[i].Encode(&wb); err != nil {
					t.Fatal(err)
				}
				if err := got[i].Encode(&gb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
					t.Fatalf("batch %d differs from serial Run", i)
				}
			}
			gs := r.Stats()
			if gs.ReadBytes != wantStats.ReadBytes || gs.RowsDecoded != wantStats.RowsDecoded ||
				gs.BatchesProduced != wantStats.BatchesProduced || gs.SentBytes != wantStats.SentBytes ||
				gs.ConvertValues != wantStats.ConvertValues || gs.ProcessOps != wantStats.ProcessOps {
				t.Fatalf("composed stats %+v, Run stats %+v", gs, wantStats)
			}
		})
	}
}

// TestFileScanMemBytes sanity-checks the cache cost estimate: nonzero,
// and strictly larger for a scan holding more rows.
func TestFileScanMemBytes(t *testing.T) {
	env := newTestEnv(t, 60, true)
	spec := baseSpec()
	r, err := NewReader(env.store, spec)
	if err != nil {
		t.Fatal(err)
	}
	files, err := env.catalog.AllFiles(spec.Table)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := r.ScanFile(context.Background(), files[0], 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fs.MemBytes() <= 0 {
		t.Fatalf("MemBytes = %d, want > 0", fs.MemBytes())
	}
	small := &FileScan{Batches: fs.Batches[:1]}
	if small.MemBytes() >= fs.MemBytes() {
		t.Fatalf("subset MemBytes %d >= full %d", small.MemBytes(), fs.MemBytes())
	}
}
