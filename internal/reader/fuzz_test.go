package reader

import (
	"bytes"
	"testing"

	"repro/internal/tensor"
)

// FuzzDecodeBatch hammers the batch wire decoder with arbitrary bytes.
// The decoder guards a network boundary (dppnet frames batches with it),
// so the contract is: any input either decodes into a batch that passes
// Validate and round-trips through Encode, or fails with an error —
// never a panic, an unbounded allocation, or a silent half-decode. The
// seed corpus is real encoded batches (the wire_test fixtures' shape)
// plus their truncations and a corrupted-magic variant.
func FuzzDecodeBatch(f *testing.F) {
	env := newTestEnv(f, 25, true)
	spec := baseSpec()
	spec.PartialDedupFeatures = []string{"user_elem_0"}
	spec.DedupSparseFeatures = [][]string{{"user_seq_0", "user_seq_1"}}
	spec.SparseFeatures = []string{"item_0", "item_1", "user_elem_1", "user_elem_2"}
	r, err := NewReader(env.store, spec)
	if err != nil {
		f.Fatal(err)
	}
	files, _ := env.catalog.AllFiles(spec.Table)
	seeded := 0
	if err := r.Run(f.Context(), files, func(b *Batch) error {
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			return err
		}
		enc := buf.Bytes()
		f.Add(enc)
		if seeded == 0 {
			f.Add(enc[:len(enc)/2]) // truncated mid-payload
			f.Add(enc[:3])          // truncated inside the magic
			bad := append([]byte(nil), enc...)
			bad[0] = 'X' // corrupted magic
			f.Add(bad)
		}
		seeded++
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	if seeded == 0 {
		f.Fatal("no seed batches produced")
	}
	// A handful of tiny batches too: small seeds mutate and minimize far
	// faster than the ~20KB realistic fixtures, so the engine gets real
	// exec throughput alongside the full-shape corpus.
	tiny := baseSpec()
	tiny.BatchSize = 8
	tiny.SparseFeatures = []string{"item_0"}
	tiny.DedupSparseFeatures = [][]string{{"user_seq_0"}}
	tr, err := NewReader(env.store, tiny)
	if err != nil {
		f.Fatal(err)
	}
	tinySeeds := 0
	if err := tr.Run(f.Context(), files[:1], func(b *Batch) error {
		if tinySeeds < 2 {
			var buf bytes.Buffer
			if err := b.Encode(&buf); err != nil {
				return err
			}
			f.Add(buf.Bytes())
			tinySeeds++
		}
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	// Empty blocks: a block crosses the codec as one copy of its cells,
	// and an empty one has no first cell to address. A batch of zero rows
	// (no offsets, no values, no dense cells, no labels) and one of rows
	// that are all empty (offsets, but no values and no dense columns).
	for _, rows := range []int{0, 2} {
		empty := tensor.NewJagged(make([][]tensor.Value, rows))
		ik, err := tensor.NewDeduper().Dedup([]string{"seq"}, []tensor.Jagged{empty})
		if err != nil {
			f.Fatal(err)
		}
		b := &Batch{
			Size:     rows,
			Dense:    tensor.NewDense(rows, 0),
			Labels:   make([]float32, rows),
			KJT:      tensor.MustKJT([]string{"item"}, []tensor.Jagged{empty}),
			IKJTs:    []*tensor.IKJT{ik},
			Partials: []*tensor.PartialIKJT{tensor.PartialDedup("elem", empty)},
		}
		if err := b.Validate(); err != nil {
			f.Fatalf("empty-block seed of %d rows: %v", rows, err)
		}
		f.Add(b.AppendTo(nil))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBatch(bytes.NewReader(data))
		// DecodeBatch is DecodeBatchFrom over the whole input, refusing
		// bytes after the batch: the same verdict and the same batch.
		sb, rest, serr := DecodeBatchFrom(data)
		if (err == nil) != (serr == nil && len(rest) == 0) {
			t.Fatalf("DecodeBatch: %v, DecodeBatchFrom: %v with %d bytes left", err, serr, len(rest))
		}
		if err != nil {
			return // malformed input must fail cleanly, and did
		}
		if !bytes.Equal(sb.AppendTo(nil), b.AppendTo(nil)) {
			t.Fatal("DecodeBatch and DecodeBatchFrom decoded different batches")
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("decode accepted an invalid batch: %v", err)
		}
		// A decoded batch must survive the codec round trip: re-encoding
		// and re-decoding cannot fail on data the decoder itself accepted.
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatalf("re-encode of decoded batch failed: %v", err)
		}
		if _, err := DecodeBatch(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
	})
}

// FuzzSpecFingerprint probes the cache-key soundness of
// Spec.Fingerprint under arbitrary feature names and parameters: the
// fingerprint must be deterministic, must separate specs that differ in
// an output-determining field (batch size, feature list shape, transform
// parameters), and must never let adversarial feature names (embedded
// quotes, separators) collapse two different feature lists into one key
// — a collision here would let dpp.ScanCache serve one job's batches to
// a differently-specced job.
func FuzzSpecFingerprint(f *testing.F) {
	f.Add("tbl", 64, "item_0", "user_seq_0", int64(1<<20))
	f.Add("t", 1, `a"b`, `a" "b`, int64(7))  // quote injection
	f.Add("t", 48, "x;st=[", "y]", int64(0)) // separator injection
	f.Add("", 0, "", "", int64(-1))          // degenerate everything
	f.Add("t", 2, "f1,f2", "f1", int64(1))   // comma vs split names
	f.Fuzz(func(t *testing.T, table string, batch int, feat1, feat2 string, param int64) {
		spec := Spec{
			Table:               table,
			BatchSize:           batch,
			SparseFeatures:      []string{feat1},
			DedupSparseFeatures: [][]string{{feat2}},
			SparseTransforms: []SparseTransform{
				HashMod{Features: []string{feat1}, TableSize: param},
			},
		}
		fp := spec.Fingerprint()
		if fp != spec.Fingerprint() {
			t.Fatal("fingerprint is not deterministic")
		}

		// Output-determining mutations must change the key.
		mutBatch := spec
		mutBatch.BatchSize++
		if mutBatch.Fingerprint() == fp {
			t.Fatal("batch-size change did not change the fingerprint")
		}
		mutParam := spec
		mutParam.SparseTransforms = []SparseTransform{
			HashMod{Features: []string{feat1}, TableSize: param + 1},
		}
		if mutParam.Fingerprint() == fp {
			t.Fatal("transform-parameter change did not change the fingerprint")
		}
		// Moving a feature between the KJT list and a dedup group changes
		// the batch's tensor layout, so it must change the key even
		// though the consumed-feature set is unchanged.
		mutShape := spec
		mutShape.SparseFeatures = nil
		mutShape.DedupSparseFeatures = [][]string{{feat2}, {feat1}}
		if mutShape.Fingerprint() == fp {
			t.Fatal("feature-placement change did not change the fingerprint")
		}
		// Splitting one feature name into two (or vice versa) must not
		// collide: %q quoting has to keep list structure unambiguous.
		joined := Spec{Table: table, BatchSize: batch,
			SparseFeatures: []string{feat1 + "," + feat2}}
		split := Spec{Table: table, BatchSize: batch,
			SparseFeatures: []string{feat1, feat2}}
		if joined.Fingerprint() == split.Fingerprint() {
			t.Fatalf("feature lists %q and %q collide", joined.SparseFeatures, split.SparseFeatures)
		}

		// The table name is the documented non-key: it cannot change
		// output, so it must not fragment the cache.
		mutTable := spec
		mutTable.Table += "_other"
		if mutTable.Fingerprint() != fp {
			t.Fatal("table name leaked into the fingerprint")
		}
	})
}
