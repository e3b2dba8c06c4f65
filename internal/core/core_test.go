package core

import (
	"testing"

	"repro/internal/datagen"
)

func TestHeuristicSelectsUserFeatures(t *testing.T) {
	rm := RM1()
	schema := rm.Schema()
	decisions := SelectDedupFeatures(schema, 16.5, 2048, 1.5)
	if len(decisions) != len(schema.Sparse) {
		t.Fatalf("got %d decisions for %d features", len(decisions), len(schema.Sparse))
	}
	byKey := map[string]FeatureDecision{}
	for _, d := range decisions {
		byKey[d.Key] = d
	}
	// High-d(f) sequence features clear the threshold; item features do not.
	if !byKey["user_seq_0"].Dedup {
		t.Fatalf("user_seq_0 should dedup (factor %.2f)", byKey["user_seq_0"].Factor)
	}
	if byKey["item_0"].Dedup {
		t.Fatalf("item_0 should not dedup (factor %.2f)", byKey["item_0"].Factor)
	}
	// Sync-group members decide together.
	g0 := byKey["user_seq_0"].Group
	if byKey["user_seq_1"].Group != g0 || byKey["user_seq_2"].Group != g0 {
		t.Fatal("seq group members should share a group")
	}
	if byKey["user_seq_1"].Dedup != byKey["user_seq_0"].Dedup {
		t.Fatal("sync group members must decide together")
	}
}

func TestDedupGroupsShape(t *testing.T) {
	decisions := []FeatureDecision{
		{Key: "a", Dedup: true, Group: "g1"},
		{Key: "b", Dedup: true, Group: "g1"},
		{Key: "c", Dedup: false, Group: "c"},
		{Key: "d", Dedup: true, Group: "d"},
	}
	groups := DedupGroups(decisions)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 || groups[0][0] != "a" || groups[0][1] != "b" {
		t.Fatalf("group 0 = %v", groups[0])
	}
	if len(groups[1]) != 1 || groups[1][0] != "d" {
		t.Fatalf("group 1 = %v", groups[1])
	}
	if MeanDedupFactor(nil) != 1 {
		t.Fatal("empty mean factor should be 1")
	}
	top := TopFactors(decisions, 2)
	if len(top) != 2 {
		t.Fatalf("TopFactors len %d", len(top))
	}
}

func TestDedupeThresholdBoundary(t *testing.T) {
	// A feature exactly at the threshold is not deduplicated (strict >).
	specs := []datagen.FeatureSpec{
		{Key: "f", Class: datagen.UserFeature, ChangeProb: 0, MeanLen: 10, MaxLen: 20,
			Update: datagen.Resample, Cardinality: 100},
	}
	schema, err := datagen.NewSchema(specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := datagen.FeatureModelFor(specs[0], 4, 1024)
	decisions := SelectDedupFeatures(schema, 4, 1024, m.DedupeFactor())
	if decisions[0].Dedup {
		t.Fatal("factor == threshold should not dedup")
	}
	decisions = SelectDedupFeatures(schema, 4, 1024, m.DedupeFactor()-0.01)
	if !decisions[0].Dedup {
		t.Fatal("factor > threshold should dedup")
	}
}

func TestReaderSpecConstruction(t *testing.T) {
	rm := RM1()
	spec, err := rm.ReaderSpec("t", 128, [][]string{{"user_seq_0", "user_seq_1"}})
	if err != nil {
		t.Fatal(err)
	}
	schema := rm.Schema()
	total := len(spec.SparseFeatures)
	for _, g := range spec.DedupSparseFeatures {
		total += len(g)
	}
	if total != len(schema.Sparse) {
		t.Fatalf("spec consumes %d features, schema has %d", total, len(schema.Sparse))
	}
	if _, err := rm.ReaderSpec("t", 128, [][]string{{"nope"}}); err == nil {
		t.Fatal("expected error for unknown feature in group")
	}
}

func TestModelConfigCoversSchema(t *testing.T) {
	for _, rm := range AllRMs() {
		schema := rm.Schema()
		cfg := rm.ModelConfig(schema)
		if len(cfg.Features) != len(schema.Sparse) {
			t.Fatalf("%s: model has %d features, schema %d", rm.Name, len(cfg.Features), len(schema.Sparse))
		}
	}
}

// TestEndToEndBaselineVsRecD is the headline Fig 7 shape at test scale:
// RecD must beat the baseline on trainer QPS, reader throughput-per-work,
// and storage compression, for RM1.
func TestEndToEndBaselineVsRecD(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline is slow")
	}
	rm := RM1()
	// Shrink for test runtime.
	rm.GenCfg.Sessions = 40
	rm.BaselineBatch, rm.RecDBatch = 256, 512

	base, err := RunBaseline(rm)
	if err != nil {
		t.Fatal(err)
	}
	recd, err := RunRecD(rm)
	if err != nil {
		t.Fatal(err)
	}

	if recd.Iteration.QPS <= base.Iteration.QPS {
		t.Fatalf("RecD QPS %.0f not above baseline %.0f", recd.Iteration.QPS, base.Iteration.QPS)
	}
	if recd.Partition.CompressionRatio() <= base.Partition.CompressionRatio() {
		t.Fatalf("clustered compression %.2f not above baseline %.2f",
			recd.Partition.CompressionRatio(), base.Partition.CompressionRatio())
	}
	if recd.Scribe.CompressionRatio() <= base.Scribe.CompressionRatio() {
		t.Fatalf("session-sharded scribe compression %.2f not above baseline %.2f",
			recd.Scribe.CompressionRatio(), base.Scribe.CompressionRatio())
	}
	if recd.Reader.ReadBytes >= base.Reader.ReadBytes {
		t.Fatal("clustering should cut reader ingest bytes")
	}
	if recd.MeasuredDedupFactor <= 1.5 {
		t.Fatalf("measured dedup factor %.2f too low", recd.MeasuredDedupFactor)
	}
	if len(recd.DedupGroups) == 0 {
		t.Fatal("heuristic selected no dedup groups")
	}
	// Sanity: the numeric model actually trained.
	if recd.FinalLoss <= 0 || base.FinalLoss <= 0 {
		t.Fatal("training losses missing")
	}
	t.Logf("QPS %.0f -> %.0f (%.2fx); compression %.2f -> %.2f; dedup factor %.2f",
		base.Iteration.QPS, recd.Iteration.QPS, recd.Iteration.QPS/base.Iteration.QPS,
		base.Partition.CompressionRatio(), recd.Partition.CompressionRatio(),
		recd.MeasuredDedupFactor)
}

func TestPipelineDefaults(t *testing.T) {
	cfg := PipelineConfig{RM: RM2(), Dedup: true}
	cfg = cfg.withDefaults()
	if cfg.Batch != RM2().RecDBatch {
		t.Fatalf("default batch = %d", cfg.Batch)
	}
	cfg = PipelineConfig{RM: RM2()}.withDefaults()
	if cfg.Batch != RM2().BaselineBatch {
		t.Fatalf("default baseline batch = %d", cfg.Batch)
	}
	if cfg.Readers != 4 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}
