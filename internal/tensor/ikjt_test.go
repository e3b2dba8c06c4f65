package tensor

import (
	"math/rand"
	"testing"
)

// figure5KJT builds the paper's Figure 5 batch of 3 rows:
//
//	row0: a:[1,2] b:[3,4,5]   c:[7,8]  d:[9]   label 1
//	row1:         b:[4,5,6]   c:[7,8]  d:[9]   label 0
//	row2: a:[1,2] b:[3,4,5]   c:[10]   d:[11]  label 1
func figure5KJT(t *testing.T) *KJT {
	t.Helper()
	kjt, err := NewKJT(
		[]string{"feature_a", "feature_b", "feature_c", "feature_d"},
		[]Jagged{
			NewJagged([][]Value{{1, 2}, {}, {1, 2}}),
			NewJagged([][]Value{{3, 4, 5}, {4, 5, 6}, {3, 4, 5}}),
			NewJagged([][]Value{{7, 8}, {7, 8}, {10}}),
			NewJagged([][]Value{{9}, {9}, {11}}),
		})
	if err != nil {
		t.Fatalf("NewKJT: %v", err)
	}
	return kjt
}

// TestPaperFigure5SingleFeatureIKJT checks feature b's IKJT against the
// paper's worked example: values [3,4,5,4,5,6], offsets [0,3],
// inverse_lookup [0,1,0].
// features looks up keys in kjt, in order; a missing key is a zero Jagged.
func features(kjt *KJT, keys []string) []Jagged {
	out := make([]Jagged, len(keys))
	for i, key := range keys {
		out[i], _ = kjt.Feature(key)
	}
	return out
}

// dedupKeys deduplicates the named features of kjt as one group.
func dedupKeys(kjt *KJT, keys []string) (*IKJT, error) {
	return DedupJagged(keys, features(kjt, keys))
}

func TestPaperFigure5SingleFeatureIKJT(t *testing.T) {
	kjt := figure5KJT(t)
	ik, err := dedupKeys(kjt, []string{"feature_b"})
	if err != nil {
		t.Fatalf("dedupKeys: %v", err)
	}
	if err := ik.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	dd, _ := ik.Deduped("feature_b")
	wantVals := []Value{3, 4, 5, 4, 5, 6}
	wantOffs := []int32{0, 3}
	wantInv := []int32{0, 1, 0}
	if len(dd.Values) != len(wantVals) {
		t.Fatalf("values = %v, want %v", dd.Values, wantVals)
	}
	for i := range wantVals {
		if dd.Values[i] != wantVals[i] {
			t.Fatalf("values = %v, want %v", dd.Values, wantVals)
		}
	}
	if len(dd.Offsets) != len(wantOffs) {
		t.Fatalf("offsets = %v, want %v", dd.Offsets, wantOffs)
	}
	for i := range wantOffs {
		if dd.Offsets[i] != wantOffs[i] {
			t.Fatalf("offsets = %v, want %v", dd.Offsets, wantOffs)
		}
	}
	inv := ik.InverseLookup()
	for i := range wantInv {
		if inv[i] != wantInv[i] {
			t.Fatalf("inverse = %v, want %v", inv, wantInv)
		}
	}
	// inverse_lookup[0] == inverse_lookup[2], as the paper calls out.
	if inv[0] != inv[2] {
		t.Errorf("rows 0 and 2 should share a unique entry")
	}
}

// TestPaperFigure5GroupedIKJT checks the grouped dedup of features c and d:
// c: values [7,8,10] offsets [0,2]; d: values [9,11] offsets [0,1];
// shared inverse_lookup [0,0,1].
func TestPaperFigure5GroupedIKJT(t *testing.T) {
	kjt := figure5KJT(t)
	ik, err := dedupKeys(kjt, []string{"feature_c", "feature_d"})
	if err != nil {
		t.Fatalf("dedupKeys: %v", err)
	}
	c, _ := ik.Deduped("feature_c")
	d, _ := ik.Deduped("feature_d")

	checkJagged := func(name string, got Jagged, wantVals []Value, wantOffs []int32) {
		t.Helper()
		if len(got.Values) != len(wantVals) {
			t.Fatalf("%s values = %v, want %v", name, got.Values, wantVals)
		}
		for i := range wantVals {
			if got.Values[i] != wantVals[i] {
				t.Fatalf("%s values = %v, want %v", name, got.Values, wantVals)
			}
		}
		if len(got.Offsets) != len(wantOffs) {
			t.Fatalf("%s offsets = %v, want %v", name, got.Offsets, wantOffs)
		}
		for i := range wantOffs {
			if got.Offsets[i] != wantOffs[i] {
				t.Fatalf("%s offsets = %v, want %v", name, got.Offsets, wantOffs)
			}
		}
	}
	checkJagged("c", c, []Value{7, 8, 10}, []int32{0, 2})
	checkJagged("d", d, []Value{9, 11}, []int32{0, 1})

	inv := ik.InverseLookup()
	wantInv := []int32{0, 0, 1}
	for i := range wantInv {
		if inv[i] != wantInv[i] {
			t.Fatalf("inverse = %v, want %v", inv, wantInv)
		}
	}
}

func TestIKJTToKJTRoundTrip(t *testing.T) {
	kjt := figure5KJT(t)
	for _, group := range [][]string{
		{"feature_a"},
		{"feature_b"},
		{"feature_c", "feature_d"},
		{"feature_a", "feature_b", "feature_c", "feature_d"},
	} {
		ik, err := dedupKeys(kjt, group)
		if err != nil {
			t.Fatalf("dedupKeys(%v): %v", group, err)
		}
		back := ik.ToKJT()
		orig := MustKJT(group, features(kjt, group))
		if !back.Equal(orig) {
			t.Errorf("group %v: round trip mismatch", group)
		}
	}
}

// TestGroupedUnsynchronizedRowsNotDeduped verifies the paper's invariant:
// if grouped feature values are not synchronously updated, the
// unsynchronized rows are NOT deduplicated (so the shared inverse lookup
// stays correct).
func TestGroupedUnsynchronizedRowsNotDeduped(t *testing.T) {
	// Feature x repeats across rows 0/1 but feature y changes at row 1.
	x := NewJagged([][]Value{{1, 2}, {1, 2}, {1, 2}})
	y := NewJagged([][]Value{{5}, {6}, {5}})
	ik, err := DedupJagged([]string{"x", "y"}, []Jagged{x, y})
	if err != nil {
		t.Fatalf("DedupJagged: %v", err)
	}
	if got := ik.UniqueRows(); got != 2 {
		t.Fatalf("UniqueRows = %d, want 2 (rows 0/2 dedup, row 1 kept)", got)
	}
	inv := ik.InverseLookup()
	if inv[0] != inv[2] || inv[0] == inv[1] {
		t.Fatalf("inverse = %v, want rows 0/2 shared, row 1 distinct", inv)
	}
	// Expansion must reproduce the original data for both features.
	back := ik.ToKJT()
	gx, _ := back.Feature("x")
	gy, _ := back.Feature("y")
	if !gx.Equal(x) || !gy.Equal(y) {
		t.Error("expansion mismatch after partial synchronization")
	}
}

func TestDedupFullyDuplicatedBatch(t *testing.T) {
	rows := make([][]Value, 64)
	for i := range rows {
		rows[i] = []Value{42, 43, 44}
	}
	ik, err := DedupJagged([]string{"f"}, []Jagged{NewJagged(rows)})
	if err != nil {
		t.Fatalf("DedupJagged: %v", err)
	}
	if ik.UniqueRows() != 1 {
		t.Fatalf("UniqueRows = %d, want 1", ik.UniqueRows())
	}
	if got := ik.MeasuredFactor(); got != 64 {
		t.Fatalf("MeasuredFactor = %v, want 64", got)
	}
}

func TestDedupNoDuplicates(t *testing.T) {
	rows := make([][]Value, 32)
	for i := range rows {
		rows[i] = []Value{Value(i), Value(i + 1)}
	}
	j := NewJagged(rows)
	ik, err := DedupJagged([]string{"f"}, []Jagged{j})
	if err != nil {
		t.Fatalf("DedupJagged: %v", err)
	}
	if ik.UniqueRows() != 32 {
		t.Fatalf("UniqueRows = %d, want 32", ik.UniqueRows())
	}
	if got := ik.MeasuredFactor(); got != 1 {
		t.Fatalf("MeasuredFactor = %v, want 1", got)
	}
	dd, _ := ik.Deduped("f")
	if !dd.Equal(j) {
		t.Error("dedup of unique batch should be identity")
	}
}

func TestDedupEmptyRowsShareEntry(t *testing.T) {
	j := NewJagged([][]Value{{}, {1}, {}, {}})
	ik, err := DedupJagged([]string{"f"}, []Jagged{j})
	if err != nil {
		t.Fatalf("DedupJagged: %v", err)
	}
	if ik.UniqueRows() != 2 {
		t.Fatalf("UniqueRows = %d, want 2", ik.UniqueRows())
	}
	if !ik.ToKJT().FeatureAt(0).Equal(j) {
		t.Error("round trip with empty rows failed")
	}
}

// TestDedupBoundaryCollision checks that rows [1,2]+[3] and [1]+[2,3]
// across a two-feature group are not treated as duplicates (length is part
// of the hash and verification).
func TestDedupBoundaryCollision(t *testing.T) {
	x := NewJagged([][]Value{{1, 2}, {1}})
	y := NewJagged([][]Value{{3}, {2, 3}})
	ik, err := DedupJagged([]string{"x", "y"}, []Jagged{x, y})
	if err != nil {
		t.Fatalf("DedupJagged: %v", err)
	}
	if ik.UniqueRows() != 2 {
		t.Fatalf("UniqueRows = %d, want 2 (boundary shift must not dedup)", ik.UniqueRows())
	}
}

func TestIKJTWireBytesSmallerThanKJT(t *testing.T) {
	// Highly duplicated long-list batch: IKJT must be strictly smaller on
	// the wire, and SDD bytes exclude the inverse lookup.
	rows := make([][]Value, 128)
	for i := range rows {
		base := Value(i / 16 * 100)
		row := make([]Value, 50)
		for c := range row {
			row[c] = base + Value(c)
		}
		rows[i] = row
	}
	j := NewJagged(rows)
	ik, err := DedupJagged([]string{"f"}, []Jagged{j})
	if err != nil {
		t.Fatalf("DedupJagged: %v", err)
	}
	if ik.WireBytes() >= j.WireBytes() {
		t.Errorf("IKJT wire bytes %d >= KJT %d", ik.WireBytes(), j.WireBytes())
	}
	if ik.SDDWireBytes() >= ik.WireBytes() {
		t.Errorf("SDD bytes %d should exclude inverse lookup (%d total)", ik.SDDWireBytes(), ik.WireBytes())
	}
}

func TestDedupErrors(t *testing.T) {
	if _, err := DedupJagged(nil, nil); err == nil {
		t.Error("empty group should error")
	}
	if _, err := DedupJagged([]string{"a", "b"}, []Jagged{NewJagged([][]Value{{1}})}); err == nil {
		t.Error("key/tensor count mismatch should error")
	}
	if _, err := DedupJagged([]string{"a", "b"}, []Jagged{
		NewJagged([][]Value{{1}}),
		NewJagged([][]Value{{1}, {2}}),
	}); err == nil {
		t.Error("row mismatch should error")
	}
}

func TestDedupLargeRandomSessionBatch(t *testing.T) {
	// Session-shaped batch: runs of identical rows, as produced by a
	// clustered table. Dedup should find exactly one unique row per run of
	// distinct values.
	rng := rand.New(rand.NewSource(7))
	var rows [][]Value
	uniqueWant := 0
	for len(rows) < 1000 {
		runLen := 1 + rng.Intn(20)
		row := make([]Value, 1+rng.Intn(30))
		for c := range row {
			row[c] = Value(rng.Int63n(1 << 40))
		}
		uniqueWant++
		for r := 0; r < runLen && len(rows) < 1000; r++ {
			rows = append(rows, row)
		}
	}
	ik, err := DedupJagged([]string{"f"}, []Jagged{NewJagged(rows)})
	if err != nil {
		t.Fatalf("DedupJagged: %v", err)
	}
	// Random 40-bit rows are distinct with overwhelming probability.
	if ik.UniqueRows() != uniqueWant {
		t.Fatalf("UniqueRows = %d, want %d", ik.UniqueRows(), uniqueWant)
	}
	if !ik.ToKJT().FeatureAt(0).Equal(NewJagged(rows)) {
		t.Fatal("round trip failed on session batch")
	}
}
