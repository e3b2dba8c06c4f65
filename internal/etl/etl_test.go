package etl

import (
	"testing"

	"repro/internal/datagen"
)

func genPartition(t *testing.T, sessions int, seed int64) ([]datagen.Sample, *datagen.Schema) {
	t.Helper()
	schema := datagen.StandardSchema(datagen.StandardSchemaConfig{
		UserSeq: 1, UserElem: 4, Item: 2, Dense: 4, SeqLen: 30, Seed: 1,
	})
	g := datagen.NewGenerator(schema, datagen.GeneratorConfig{
		Sessions:              sessions,
		MeanSamplesPerSession: 10,
		Seed:                  seed,
	})
	return g.GeneratePartition(), schema
}

func TestJoinRoundTrip(t *testing.T) {
	samples, _ := genPartition(t, 40, 3)
	feats, events := SplitLogs(samples)
	joined := Join(feats, events)
	if len(joined) != len(samples) {
		t.Fatalf("joined %d, want %d", len(joined), len(samples))
	}
	for i := range samples {
		if joined[i].RequestID != samples[i].RequestID || joined[i].Label != samples[i].Label {
			t.Fatalf("sample %d mismatch after join", i)
		}
	}
}

func TestJoinDropsUnmatchedFeatures(t *testing.T) {
	samples, _ := genPartition(t, 10, 4)
	feats, events := SplitLogs(samples)
	// Remove half the events: those impressions never resolved.
	events = events[:len(events)/2]
	joined := Join(feats, events)
	if len(joined) != len(events) {
		t.Fatalf("joined %d, want %d", len(joined), len(events))
	}
}

func TestClusterBySessionInvariants(t *testing.T) {
	samples, _ := genPartition(t, 200, 5)
	clustered := ClusterBySession(samples)
	if err := ValidateClustered(samples, clustered); err != nil {
		t.Fatalf("ValidateClustered: %v", err)
	}
	// Input must be untouched (still timestamp ordered).
	for i := 1; i < len(samples); i++ {
		if samples[i].Timestamp < samples[i-1].Timestamp {
			t.Fatal("ClusterBySession mutated its input")
		}
	}
}

// TestClusteringRestoresBatchSessionMean reproduces the §3 conclusion:
// clustering lifts the within-batch samples-per-session from ~1 back to the
// partition-level mean, enabling dedup within training batches.
func TestClusteringRestoresBatchSessionMean(t *testing.T) {
	samples, _ := genPartition(t, 3000, 6)
	before := datagen.BatchSessionMean(samples, 4096)
	clustered := ClusterBySession(samples)
	after := datagen.BatchSessionMean(clustered, 4096)
	partitionS := datagen.MeasuredS(samples)
	t.Logf("batch S: interleaved %.2f, clustered %.2f (partition %.2f)", before, after, partitionS)
	if before > 3 {
		t.Errorf("interleaved batch S = %.2f, want near 1", before)
	}
	if after < partitionS*0.8 {
		t.Errorf("clustered batch S = %.2f, want near partition S %.2f", after, partitionS)
	}
}

func TestValidateClusteredCatchesViolations(t *testing.T) {
	samples, _ := genPartition(t, 50, 7)
	clustered := ClusterBySession(samples)

	// Non-contiguous session: swap first and last samples.
	bad := append([]datagen.Sample(nil), clustered...)
	bad[0], bad[len(bad)-1] = bad[len(bad)-1], bad[0]
	if err := ValidateClustered(samples, bad); err == nil {
		t.Error("shuffled clustering accepted")
	}

	// Dropped sample.
	if err := ValidateClustered(samples, clustered[:len(clustered)-1]); err == nil {
		t.Error("truncated clustering accepted")
	}

	// Sample substitution (multiset change).
	bad2 := append([]datagen.Sample(nil), clustered...)
	bad2[0].RequestID = -12345
	if err := ValidateClustered(samples, bad2); err == nil {
		t.Error("substituted sample accepted")
	}
}

func TestDownsamplePerSampleShrinksS(t *testing.T) {
	samples, _ := genPartition(t, 500, 8)
	origS := datagen.MeasuredS(samples)
	down := Downsample(samples, 0.25, PerSample, 1)
	if len(down) == 0 || len(down) > len(samples)/2 {
		t.Fatalf("downsampled to %d of %d", len(down), len(samples))
	}
	dsS := datagen.MeasuredS(down)
	if dsS >= origS*0.6 {
		t.Errorf("per-sample downsampling S = %.2f, want well below %.2f", dsS, origS)
	}
}

// TestDownsamplePerSessionPreservesS verifies the §7 claim: per-session
// downsampling keeps S (and thus DedupeFactor) intact at the same data
// volume.
func TestDownsamplePerSessionPreservesS(t *testing.T) {
	samples, _ := genPartition(t, 500, 9)
	origS := datagen.MeasuredS(samples)
	down := Downsample(samples, 0.25, PerSession, 1)
	dsS := datagen.MeasuredS(down)
	if dsS < origS*0.7 {
		t.Errorf("per-session downsampling S = %.2f, want near %.2f", dsS, origS)
	}
	// Volume should still be roughly a quarter.
	frac := float64(len(down)) / float64(len(samples))
	if frac < 0.1 || frac > 0.45 {
		t.Errorf("kept fraction = %.2f, want ~0.25", frac)
	}
}

func TestDownsampleRateOneIsIdentity(t *testing.T) {
	samples, _ := genPartition(t, 20, 10)
	down := Downsample(samples, 1.0, PerSample, 1)
	if len(down) != len(samples) {
		t.Fatalf("rate 1 dropped samples: %d vs %d", len(down), len(samples))
	}
}

func TestDownsampleDeterministic(t *testing.T) {
	samples, _ := genPartition(t, 100, 11)
	a := Downsample(samples, 0.5, PerSession, 42)
	b := Downsample(samples, 0.5, PerSession, 42)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic downsample: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].RequestID != b[i].RequestID {
			t.Fatal("nondeterministic downsample ordering")
		}
	}
}
