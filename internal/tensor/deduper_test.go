package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// referenceDedup is a deliberately naive grouped dedup: string-keyed map,
// first-occurrence order. It is the oracle the open-addressed Deduper must
// match exactly.
func referenceDedup(keys []string, features []Jagged) (uniques [][][]Value, inverse []int32) {
	batch := features[0].Rows()
	seen := map[string]int32{}
	inverse = make([]int32, batch)
	uniques = make([][][]Value, len(features))
	for row := 0; row < batch; row++ {
		sig := ""
		for fi := range features {
			sig += fmt.Sprintf("|%v", features[fi].Row(row))
		}
		if u, ok := seen[sig]; ok {
			inverse[row] = u
			continue
		}
		u := int32(len(seen))
		seen[sig] = u
		inverse[row] = u
		for fi := range features {
			uniques[fi] = append(uniques[fi], append([]Value(nil), features[fi].Row(row)...))
		}
	}
	return uniques, inverse
}

// randomGroup builds a grouped batch with heavy session-style duplication
// across nKeys synchronized features.
func randomGroup(rng *rand.Rand, nKeys int) []Jagged {
	batch := rng.Intn(64) + 1
	rows := make([][][]Value, nKeys)
	for fi := range rows {
		rows[fi] = make([][]Value, batch)
	}
	for i := 0; i < batch; i++ {
		if i > 0 && rng.Intn(3) != 0 {
			// Duplicate a random prior row group (all features together).
			src := rng.Intn(i)
			for fi := range rows {
				rows[fi][i] = rows[fi][src]
			}
			continue
		}
		for fi := range rows {
			row := make([]Value, rng.Intn(10))
			for c := range row {
				row[c] = Value(rng.Int63n(1 << 16))
			}
			rows[fi][i] = row
		}
	}
	out := make([]Jagged, nKeys)
	for fi := range out {
		out[fi] = NewJagged(rows[fi])
	}
	return out
}

func assertMatchesReference(t *testing.T, keys []string, features []Jagged, ik *IKJT) {
	t.Helper()
	wantUniques, wantInverse := referenceDedup(keys, features)
	if err := ik.Validate(); err != nil {
		t.Fatal(err)
	}
	if ik.UniqueRows() != len(wantUniques[0]) {
		t.Fatalf("unique rows %d, reference %d", ik.UniqueRows(), len(wantUniques[0]))
	}
	for i, u := range ik.InverseLookup() {
		if u != wantInverse[i] {
			t.Fatalf("inverse[%d] = %d, reference %d", i, u, wantInverse[i])
		}
	}
	for fi := range features {
		dd := ik.DedupedAt(fi)
		for ui, wantRow := range wantUniques[fi] {
			got := dd.Row(ui)
			if len(got) != len(wantRow) {
				t.Fatalf("feature %d unique %d: len %d want %d", fi, ui, len(got), len(wantRow))
			}
			for c := range wantRow {
				if got[c] != wantRow[c] {
					t.Fatalf("feature %d unique %d value %d: %d want %d", fi, ui, c, got[c], wantRow[c])
				}
			}
		}
	}
}

// TestDeduperMatchesReference checks the open-addressed Deduper against
// the naive reference across randomized grouped inputs, reusing one
// Deduper for every batch (the reader's usage pattern).
func TestDeduperMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := NewDeduper()
	for trial := 0; trial < 300; trial++ {
		nKeys := rng.Intn(3) + 1
		keys := make([]string, nKeys)
		for i := range keys {
			keys[i] = fmt.Sprintf("f%d", i)
		}
		features := randomGroup(rng, nKeys)
		ik, err := d.Dedup(keys, features)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesReference(t, keys, features, ik)
	}
}

// TestDeduperOutputsSurviveReuse pins the reuse contract: IKJTs returned
// from earlier Dedup calls must stay intact while the same Deduper keeps
// processing new batches (no retained references into scratch).
func TestDeduperOutputsSurviveReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := NewDeduper()
	keys := []string{"a", "b"}
	type held struct {
		features []Jagged
		ik       *IKJT
	}
	var outputs []held
	for trial := 0; trial < 50; trial++ {
		features := randomGroup(rng, 2)
		ik, err := d.Dedup(keys, features)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, held{features: features, ik: ik})
	}
	for i, h := range outputs {
		out := h.ik.ToKJT()
		for fi := range h.features {
			got := out.FeatureAt(fi)
			if !got.Equal(h.features[fi]) {
				t.Fatalf("output %d feature %d corrupted by later Dedup calls", i, fi)
			}
		}
	}
}

// TestDeduperErrors covers the argument validation paths.
func TestDeduperErrors(t *testing.T) {
	d := NewDeduper()
	if _, err := d.Dedup(nil, nil); err == nil {
		t.Fatal("expected error for empty key group")
	}
	if _, err := d.Dedup([]string{"a", "b"}, []Jagged{Jagged{Offsets: make([]int32, 1)}}); err == nil {
		t.Fatal("expected error for key/tensor count mismatch")
	}
	if _, err := d.Dedup([]string{"a", "b"}, []Jagged{Jagged{Offsets: make([]int32, 1)}, Jagged{Offsets: make([]int32, 2)}}); err == nil {
		t.Fatal("expected error for row count mismatch")
	}
}

// TestJaggedIndexSelectInto checks destination reuse: the second select
// must reuse the first result's storage when capacity suffices and still
// produce exact rows.
func TestJaggedIndexSelectInto(t *testing.T) {
	j := NewJagged([][]Value{{1, 2, 3}, {4}, {}, {5, 6}})
	idx := []int32{3, 0, 0, 1}
	dst := JaggedIndexSelectInto(Jagged{}, j, idx)
	want := JaggedIndexSelect(j, idx)
	if !dst.Equal(want) {
		t.Fatalf("into %v want %v", dst, want)
	}
	firstValues := &dst.Values[0]
	dst2 := JaggedIndexSelectInto(dst, j, []int32{1, 2})
	if dst2.Rows() != 2 || dst2.RowLen(0) != 1 || dst2.Row(0)[0] != 4 || dst2.RowLen(1) != 0 {
		t.Fatalf("reused select wrong: %v", dst2)
	}
	if &dst2.Values[0] != firstValues {
		t.Fatal("destination storage was not reused despite sufficient capacity")
	}
}

func TestMeasuredFactorMatchesExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		features := randomGroup(rng, 2)
		ik, err := DedupJagged([]string{"x", "y"}, features)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: expand and compare value counts directly.
		expanded, stored := 0, 0
		for fi := 0; fi < ik.NumKeys(); fi++ {
			expanded += JaggedIndexSelect(ik.DedupedAt(fi), ik.InverseLookup()).NumValues()
			stored += ik.DedupedAt(fi).NumValues()
		}
		want := 1.0
		if stored > 0 {
			want = float64(expanded) / float64(stored)
		}
		if got := ik.MeasuredFactor(); got != want {
			t.Fatalf("MeasuredFactor %v want %v", got, want)
		}
	}
}
