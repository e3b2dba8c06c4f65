package datagen

import (
	"math"
	"testing"
)

func testSchema() *Schema {
	return StandardSchema(StandardSchemaConfig{
		UserSeq:  2,
		UserElem: 6,
		Item:     4,
		Dense:    8,
		SeqLen:   40,
		Seed:     1,
	})
}

func TestStandardSchemaShape(t *testing.T) {
	s := testSchema()
	if got := len(s.Sparse); got != 12 {
		t.Fatalf("sparse features = %d, want 12", got)
	}
	if s.Dense != 8 {
		t.Fatalf("dense = %d, want 8", s.Dense)
	}
	var users, items int
	for _, f := range s.Sparse {
		switch f.Class {
		case UserFeature:
			users++
			if f.D() < 0.75 {
				t.Errorf("user feature %s d(f)=%v, want high", f.Key, f.D())
			}
		case ItemFeature:
			items++
			if f.D() > 0.2 {
				t.Errorf("item feature %s d(f)=%v, want low", f.Key, f.D())
			}
		}
	}
	if users != 8 || items != 4 {
		t.Fatalf("users=%d items=%d", users, items)
	}
	if i, ok := s.FeatureIndex("user_seq_0"); !ok || i != 0 {
		t.Errorf("FeatureIndex(user_seq_0) = %d,%v", i, ok)
	}
	if _, ok := s.FeatureIndex("nope"); ok {
		t.Error("FeatureIndex should miss")
	}
	keys := s.SparseKeys()
	if len(keys) != 12 || keys[0] != "user_seq_0" {
		t.Errorf("SparseKeys = %v", keys)
	}
}

func TestNewSchemaValidation(t *testing.T) {
	bad := []FeatureSpec{
		{Key: "", MeanLen: 1, MaxLen: 1, Cardinality: 10},
		{Key: "a", ChangeProb: 2, MeanLen: 1, MaxLen: 1, Cardinality: 10},
		{Key: "a", MeanLen: 0, MaxLen: 1, Cardinality: 10},
		{Key: "a", MeanLen: 5, MaxLen: 2, Cardinality: 10},
		{Key: "a", MeanLen: 1, MaxLen: 1, Cardinality: 0},
	}
	for i, f := range bad {
		if _, err := NewSchema([]FeatureSpec{f}, 0); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	if _, err := NewSchema([]FeatureSpec{
		{Key: "a", MeanLen: 1, MaxLen: 1, Cardinality: 10},
		{Key: "a", MeanLen: 1, MaxLen: 1, Cardinality: 10},
	}, 0); err == nil {
		t.Error("duplicate keys accepted")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := GeneratorConfig{Sessions: 20, MeanSamplesPerSession: 5, Seed: 42}
	a := NewGenerator(testSchema(), cfg).GeneratePartition()
	b := NewGenerator(testSchema(), cfg).GeneratePartition()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].RequestID != b[i].RequestID || a[i].SessionID != b[i].SessionID {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestGeneratorSessionMean(t *testing.T) {
	g := NewGenerator(testSchema(), GeneratorConfig{
		Sessions:              2000,
		MeanSamplesPerSession: 16.5,
		Seed:                  7,
	})
	samples := g.GeneratePartition()
	s := MeasuredS(samples)
	if s < 12 || s > 21 {
		t.Fatalf("measured S = %v, want near 16.5", s)
	}
	// The stream must be timestamp ordered (inference-time interleaving).
	for i := 1; i < len(samples); i++ {
		if samples[i].Timestamp < samples[i-1].Timestamp {
			t.Fatal("partition not timestamp ordered")
		}
	}
}

// TestInterleavingCollapsesBatchSessionMean reproduces the core Fig 3
// observation: a timestamp-ordered partition has many samples per session
// overall, but within a 4096 batch only ~1 per session.
func TestInterleavingCollapsesBatchSessionMean(t *testing.T) {
	g := NewGenerator(testSchema(), GeneratorConfig{
		Sessions:              3000,
		MeanSamplesPerSession: 16.5,
		Seed:                  5,
	})
	samples := g.GeneratePartition()
	partitionS := MeasuredS(samples)
	batchS := BatchSessionMean(samples, 4096)
	if batchS >= partitionS/3 {
		t.Fatalf("batch S %v should be far below partition S %v", batchS, partitionS)
	}
	if batchS > 3.0 {
		t.Fatalf("batch S = %v, want near 1 on interleaved stream", batchS)
	}
}

func TestSessionHistogramTail(t *testing.T) {
	g := NewGenerator(testSchema(), GeneratorConfig{
		Sessions:              5000,
		MeanSamplesPerSession: 16.5,
		Seed:                  9,
	})
	samples := g.GeneratePartition()
	h := SessionHistogram(samples)
	var sessions int64
	for _, b := range h.Buckets() {
		sessions += b.Count
	}
	if sessions != 5000 {
		t.Fatalf("sessions = %d", sessions)
	}
	if h.Mean() < 10 {
		t.Errorf("mean = %v, want >= 10", h.Mean())
	}
	// Heavy tail: some session should exceed 128 samples.
	if h.Max() < 128 {
		t.Errorf("max = %d, want a heavy tail", h.Max())
	}
}

// TestDuplicationStats checks the Fig 4 shape: user features highly
// duplicated, item features barely; partial >= exact; byte-weighted near
// the paper's 80% range for user-dominated schemas.
func TestDuplicationStats(t *testing.T) {
	schema := testSchema()
	g := NewGenerator(schema, GeneratorConfig{
		Sessions:              400,
		MeanSamplesPerSession: 16.5,
		Seed:                  3,
	})
	samples := g.GeneratePartition()
	sum := MeasureDuplication(schema, samples)

	for _, st := range sum.PerFeature {
		switch st.Class {
		case UserFeature:
			if st.ExactPct < 50 {
				t.Errorf("user feature %s exact dup %.1f%%, want high", st.Key, st.ExactPct)
			}
		case ItemFeature:
			if st.ExactPct > 40 {
				t.Errorf("item feature %s exact dup %.1f%%, want low", st.Key, st.ExactPct)
			}
		}
		if st.PartialPct+2 < st.ExactPct {
			// Partial captures exact duplicates too (up to per-ID vs
			// per-sample accounting noise).
			t.Errorf("feature %s partial %.1f%% < exact %.1f%%", st.Key, st.PartialPct, st.ExactPct)
		}
	}
	if sum.MeanExactPct < 40 || sum.MeanExactPct > 95 {
		t.Errorf("mean exact = %.1f%%, want user-dominated average", sum.MeanExactPct)
	}
	if sum.ByteWeightedExactPct < sum.MeanExactPct {
		t.Errorf("byte-weighted exact %.1f%% < mean %.1f%%: longer features should dup slightly more",
			sum.ByteWeightedExactPct, sum.MeanExactPct)
	}
	if sum.ByteWeightedPartialPct < sum.ByteWeightedExactPct {
		t.Errorf("byte-weighted partial %.1f%% < exact %.1f%%",
			sum.ByteWeightedPartialPct, sum.ByteWeightedExactPct)
	}
}

func TestSampleEncodeDecodeRoundTrip(t *testing.T) {
	g := NewGenerator(testSchema(), GeneratorConfig{Sessions: 5, MeanSamplesPerSession: 4, Seed: 2})
	samples := g.GeneratePartition()
	var back []Sample
	for _, s := range samples {
		b, err := DecodeSample(s.AppendTo(nil))
		if err != nil {
			t.Fatalf("DecodeSample: %v", err)
		}
		back = append(back, b)
	}
	if len(back) != len(samples) {
		t.Fatalf("decoded %d, want %d", len(back), len(samples))
	}
	for i := range samples {
		a, b := samples[i], back[i]
		if a.SessionID != b.SessionID || a.RequestID != b.RequestID ||
			a.Timestamp != b.Timestamp || a.Label != b.Label {
			t.Fatalf("sample %d header mismatch", i)
		}
		if len(a.Sparse) != len(b.Sparse) {
			t.Fatalf("sample %d sparse count mismatch", i)
		}
		for fi := range a.Sparse {
			if len(a.Sparse[fi]) != len(b.Sparse[fi]) {
				t.Fatalf("sample %d feature %d length mismatch", i, fi)
			}
			for c := range a.Sparse[fi] {
				if a.Sparse[fi][c] != b.Sparse[fi][c] {
					t.Fatalf("sample %d feature %d value mismatch", i, fi)
				}
			}
		}
		for d := range a.Dense {
			if a.Dense[d] != b.Dense[d] {
				t.Fatalf("sample %d dense mismatch", i)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	// A sparse count of 2^40 must be rejected, not allocated.
	s := Sample{Sparse: [][]int64{}, Dense: []float32{}}
	raw := s.AppendTo(nil)
	// Corrupt the sparse-count field (offset 33 = 4*8 header + label).
	for i := 33; i < 41; i++ {
		raw[i] = 0xff
	}
	if _, err := DecodeSample(raw); err == nil {
		t.Fatal("implausible sparse count accepted")
	}
}

// generateSessions synthesizes g's sessions grouped session-major, the
// layout a clustered table produces.
func generateSessions(g *Generator) [][]Sample {
	out := make([][]Sample, 0, g.cfg.Sessions)
	for sess := 0; sess < g.cfg.Sessions; sess++ {
		out = append(out, g.generateSession(int64(sess+1)))
	}
	return out
}

func TestGenerateSessionsGrouped(t *testing.T) {
	g := NewGenerator(testSchema(), GeneratorConfig{Sessions: 10, MeanSamplesPerSession: 8, Seed: 4})
	sessions := generateSessions(g)
	if len(sessions) != 10 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	for _, sess := range sessions {
		if len(sess) == 0 {
			t.Fatal("empty session")
		}
		sid := sess[0].SessionID
		for i, s := range sess {
			if s.SessionID != sid {
				t.Fatal("mixed session IDs in group")
			}
			if i > 0 && s.Timestamp < sess[i-1].Timestamp {
				t.Fatal("session samples not time ordered")
			}
		}
	}
}

func TestShiftAppendProducesPartialOverlap(t *testing.T) {
	schema, err := NewSchema([]FeatureSpec{{
		Key:         "seq",
		Class:       UserFeature,
		ChangeProb:  1.0, // change every sample
		MeanLen:     20,
		MaxLen:      20,
		Update:      ShiftAppend,
		Cardinality: 1 << 30,
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator(schema, GeneratorConfig{Sessions: 50, MeanSamplesPerSession: 10, Seed: 6})
	samples := g.GeneratePartition()
	sum := MeasureDuplication(schema, samples)
	st := sum.PerFeature[0]
	if st.ExactPct > 5 {
		t.Errorf("exact = %.1f%%, want ~0 when every sample shifts", st.ExactPct)
	}
	if st.PartialPct < 50 {
		t.Errorf("partial = %.1f%%, want high for shift updates", st.PartialPct)
	}
}

func TestSessionSizeMeanApproximation(t *testing.T) {
	g := NewGenerator(testSchema(), GeneratorConfig{
		Sessions:              1,
		MeanSamplesPerSession: 16.5,
		Seed:                  8,
	})
	var total float64
	const n = 20000
	for i := 0; i < n; i++ {
		total += float64(g.sessionSize())
	}
	mean := total / n
	if math.Abs(mean-16.5) > 2.5 {
		t.Fatalf("empirical mean %v, want ~16.5", mean)
	}
}
