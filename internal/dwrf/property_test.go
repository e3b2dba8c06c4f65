package dwrf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
)

// randomSamples draws an arbitrary valid batch for the given schema. A
// third of the features draw IDs below their cardinality, as generated
// tables do; a third from the whole int64 range, half of them at
// math.MinInt64 or math.MaxInt64, so a stripe's IDs span the range, its
// width is 8 and its offsets over the base wrap; and a third repeat one
// such ID through the list. Half of the lists are drawn fresh; the others
// are made of an earlier row's list of the same feature, as the encoder's
// references state them: the previous row's or one 2–127 rows back, again
// or as a window slid by a drop of 0–3 IDs — sometimes the whole list —
// and a tail of 0–2 new ones. An earlier row may itself have been made so,
// so references refer to references.
func randomSamples(rng *rand.Rand, schema *datagen.Schema, n int) []datagen.Sample {
	anyID := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		}
		return int64(rng.Uint64())
	}
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
			one := anyID()
			id := func() int64 {
				switch fi % 3 {
				case 0:
					return rng.Int63n(f.Cardinality)
				case 1:
					return anyID()
				}
				return one
			}
			var lst []int64
			switch dist := 1 + rng.Intn(127); {
			case rng.Intn(2) == 0 || i == 0:
				lst = make([]int64, rng.Intn(f.MaxLen+1)) // include empty lists
				for k := range lst {
					lst[k] = id()
				}
			case rng.Intn(3) == 0 && dist <= i: // again, 1–127 rows back
				lst = out[i-dist].Sparse[fi]
			default: // a window slid over the previous row or one up to 127 back
				from := out[i-min(dist, i)].Sparse[fi]
				drop := min(rng.Intn(4), len(from))
				if rng.Intn(8) == 0 {
					drop = len(from)
				}
				lst = append([]int64(nil), from[drop:]...)
				for range rng.Intn(3) {
					lst = append(lst, id())
				}
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
// of stripe size — up to 256 rows, so a stripe holds references up to
// randomSamples' 127 rows back.
func TestPropertyRoundTrip(t *testing.T) {
	schema := testSchema()
	prop := func(seed int64, rows uint8, stripeRows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rows) + 1
		stripe := int(stripeRows) + 1
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
// via byte ranges concatenates to the same rows as ReadAll, less the row
// keys only ReadAll reads, and ReadAll's rows are the rows written — so
// two reads that agree on a misencoded stripe still fail.
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
			if !samplesEqual(all[i], samples[i]) || !samplesEqual(chunkRow(all[i]), viaStripes[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCompressedNotLarger: the stored file is never wildly larger
// than its plain column encodings (row headers and fixed-width IDs add a
// little).
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
		// Footer + headers + ID widths stay under 25% + 4KB.
		return stats.CompressedBytes <= stats.RawBytes+stats.RawBytes/4+4096
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
