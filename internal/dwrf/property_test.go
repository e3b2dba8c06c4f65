package dwrf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
)

// randomSamples draws an arbitrary valid batch for the given schema.
func randomSamples(rng *rand.Rand, schema *datagen.Schema, n int) []datagen.Sample {
	out := make([]datagen.Sample, n)
	for i := range out {
		s := datagen.Sample{
			SessionID: rng.Int63n(1 << 20),
			UserID:    rng.Int63(),
			RequestID: rng.Int63(),
			Timestamp: rng.Int63n(1 << 40),
			Label:     int8(rng.Intn(2)),
			Sparse:    make([][]int64, len(schema.Sparse)),
			Dense:     make([]float32, schema.Dense),
		}
		for fi, f := range schema.Sparse {
			l := rng.Intn(f.MaxLen + 1) // include empty lists
			lst := make([]int64, l)
			for k := range lst {
				lst[k] = rng.Int63n(f.Cardinality)
			}
			s.Sparse[fi] = lst
		}
		for d := range s.Dense {
			s.Dense[d] = rng.Float32()*200 - 100
		}
		out[i] = s
	}
	return out
}

// TestPropertyRoundTrip: for arbitrary valid sample batches, writing a
// DWRF file and reading it back reproduces every row exactly, regardless
// of stripe size.
func TestPropertyRoundTrip(t *testing.T) {
	schema := testSchema()
	prop := func(seed int64, rows uint8, stripeRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rows%64) + 1
		stripe := int(stripeRows%16) + 1
		samples := randomSamples(rng, schema, n)

		w, err := NewFileWriter(schema, WriterOptions{StripeRows: stripe})
		if err != nil {
			return false
		}
		if err := w.WriteRows(samples); err != nil {
			return false
		}
		data, stats, err := w.Finish()
		if err != nil {
			return false
		}
		if stats.Rows != n {
			return false
		}
		r, err := OpenReader(data)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if !samplesEqual(got[i], samples[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStripeDecodeMatchesReadAll: decoding stripes independently
// via byte ranges concatenates to the same rows as ReadAll.
func TestPropertyStripeDecodeMatchesReadAll(t *testing.T) {
	schema := testSchema()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		samples := randomSamples(rng, schema, 40)
		w, _ := NewFileWriter(schema, WriterOptions{StripeRows: 7})
		if err := w.WriteRows(samples); err != nil {
			return false
		}
		data, _, err := w.Finish()
		if err != nil {
			return false
		}
		r, err := OpenReader(data)
		if err != nil {
			return false
		}
		var viaStripes []datagen.Sample
		for i := 0; i < r.NumStripes(); i++ {
			c, err := r.StripeColumns(i, allColumns(len(r.SparseKeys())))
			if err != nil {
				return false
			}
			viaStripes = append(viaStripes, c.Samples()...)
		}
		all, err := r.ReadAll()
		if err != nil || len(all) != len(viaStripes) {
			return false
		}
		for i := range all {
			if !samplesEqual(all[i], viaStripes[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCompressedNotLarger: the compressed file is never wildly
// larger than its raw column streams (flate worst case adds a tiny
// per-block overhead).
func TestPropertyCompressedNotLarger(t *testing.T) {
	schema := testSchema()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		samples := randomSamples(rng, schema, 32)
		w, _ := NewFileWriter(schema, WriterOptions{})
		if err := w.WriteRows(samples); err != nil {
			return false
		}
		_, stats, err := w.Finish()
		if err != nil {
			return false
		}
		// Footer + headers + flate overhead stay under 25% + 4KB.
		return stats.CompressedBytes <= stats.RawBytes+stats.RawBytes/4+4096
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
