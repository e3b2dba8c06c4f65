package datagen

import (
	"fmt"
	"testing"
)

// TestSyncGroupUpdatesTogether: features sharing a SyncGroup and
// ChangeProb must change on exactly the same steps within a session, the
// property grouped IKJTs rely on (paper §4.2).
func TestSyncGroupUpdatesTogether(t *testing.T) {
	specs := []FeatureSpec{
		{Key: "a", Class: UserFeature, ChangeProb: 0.5, MeanLen: 4, MaxLen: 8,
			Update: Resample, Cardinality: 1 << 20, SyncGroup: "g"},
		{Key: "b", Class: UserFeature, ChangeProb: 0.5, MeanLen: 6, MaxLen: 12,
			Update: Resample, Cardinality: 1 << 20, SyncGroup: "g"},
		{Key: "c", Class: UserFeature, ChangeProb: 0.5, MeanLen: 4, MaxLen: 8,
			Update: Resample, Cardinality: 1 << 20}, // independent
	}
	schema, err := NewSchema(specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(schema, GeneratorConfig{
		Sessions: 50, MeanSamplesPerSession: 10, Seed: 3,
	})
	sessions := generateSessions(gen)

	listEq := func(x, y []int64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}

	cChangesAlone := false
	for _, sess := range sessions {
		for i := 1; i < len(sess); i++ {
			aChanged := !listEq(sess[i].Sparse[0], sess[i-1].Sparse[0])
			bChanged := !listEq(sess[i].Sparse[1], sess[i-1].Sparse[1])
			cChanged := !listEq(sess[i].Sparse[2], sess[i-1].Sparse[2])
			if aChanged != bChanged {
				t.Fatalf("sync group members diverged at step %d: a=%v b=%v", i, aChanged, bChanged)
			}
			if cChanged != aChanged {
				cChangesAlone = true
			}
		}
	}
	if !cChangesAlone {
		t.Fatal("independent feature never diverged from the group; sync draw is leaking")
	}
}

// TestStandardSchemaSyncGroups: StandardSchema assigns sequence features
// to groups of SeqGroupSize with identical ChangeProb per group.
func TestStandardSchemaSyncGroups(t *testing.T) {
	s := StandardSchema(StandardSchemaConfig{
		UserSeq: 7, UserElem: 2, Item: 1, Dense: 2, SeqLen: 16, SeqGroupSize: 3, Seed: 9,
	})
	groups := map[string][]FeatureSpec{}
	for _, f := range s.Sparse {
		if f.Class == UserFeature && f.SyncGroup != "" {
			groups[f.SyncGroup] = append(groups[f.SyncGroup], f)
		}
	}
	// 7 seq features in groups of 3 → groups of size 3, 3, 1.
	if len(groups) != 3 {
		t.Fatalf("got %d sync groups want 3", len(groups))
	}
	for name, fs := range groups {
		for _, f := range fs[1:] {
			if f.ChangeProb != fs[0].ChangeProb {
				t.Fatalf("group %s has mixed ChangeProb", name)
			}
		}
	}
	// Group names follow the documented pattern.
	for i := 0; i < 3; i++ {
		if _, ok := groups[fmt.Sprintf("seq_group_%d", i)]; !ok {
			t.Fatalf("missing seq_group_%d", i)
		}
	}
}
