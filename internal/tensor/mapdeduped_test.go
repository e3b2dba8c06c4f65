package tensor

import "testing"

func TestMapDedupedTransformsUniqueRowsOnly(t *testing.T) {
	b := NewJagged([][]Value{{3, 4, 5}, {4, 5, 6}, {3, 4, 5}})
	ik, err := DedupJagged([]string{"b"}, []Jagged{b})
	if err != nil {
		t.Fatal(err)
	}

	calls := 0
	out, err := ik.MapDeduped("b", func(j Jagged) Jagged {
		calls++
		c := j.Clone()
		for i := range c.Values {
			c.Values[i] *= 10
		}
		return c
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("transform called %d times", calls)
	}
	// Expansion reflects the transform on every (duplicated) row.
	j, _ := out.Feature("b")
	want := [][]Value{{30, 40, 50}, {40, 50, 60}, {30, 40, 50}}
	for r := range want {
		got := j.Row(r)
		for i := range want[r] {
			if got[i] != want[r][i] {
				t.Fatalf("row %d = %v want %v", r, got, want[r])
			}
		}
	}
	// Original IKJT untouched.
	orig, _ := ik.Deduped("b")
	if orig.Values[0] != 3 {
		t.Fatal("MapDeduped mutated the source IKJT")
	}
	// Inverse lookup is shared, not copied.
	if &out.InverseLookup()[0] != &ik.InverseLookup()[0] {
		t.Fatal("inverse lookup should be shared")
	}
}

func TestMapDedupedRowReshape(t *testing.T) {
	b := NewJagged([][]Value{{1, 2, 3, 4}, {1, 2, 3, 4}, {9}})
	ik, err := DedupJagged([]string{"b"}, []Jagged{b})
	if err != nil {
		t.Fatal(err)
	}
	// Truncation-style transforms may change row lengths but not counts.
	out, err := ik.MapDeduped("b", func(j Jagged) Jagged {
		rows := make([][]Value, j.Rows())
		for i := 0; i < j.Rows(); i++ {
			r := j.Row(i)
			if len(r) > 2 {
				r = r[:2]
			}
			rows[i] = append([]Value(nil), r...)
		}
		return NewJagged(rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := out.Feature("b")
	if j.RowLen(0) != 2 || j.RowLen(1) != 2 || j.RowLen(2) != 1 {
		t.Fatalf("reshaped rows wrong: %v", j)
	}

	// Changing the unique-row COUNT is rejected.
	if _, err := ik.MapDeduped("b", func(j Jagged) Jagged {
		return Jagged{Offsets: make([]int32, j.Rows()+1)}
	}); err == nil {
		t.Fatal("expected error for changed row count")
	}
}

func TestMapDedupedUnknownKey(t *testing.T) {
	b := NewJagged([][]Value{{1}})
	ik, err := DedupJagged([]string{"b"}, []Jagged{b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ik.MapDeduped("nope", func(j Jagged) Jagged { return j }); err == nil {
		t.Fatal("expected error for unknown key")
	}
}

func TestMapDedupedGroupedKeepsOtherFeatures(t *testing.T) {
	c := NewJagged([][]Value{{7, 8}, {7, 8}, {10}})
	d := NewJagged([][]Value{{9}, {9}, {11}})
	ik, err := DedupJagged([]string{"c", "d"}, []Jagged{c, d})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ik.MapDeduped("c", func(j Jagged) Jagged {
		cl := j.Clone()
		for i := range cl.Values {
			cl.Values[i]++
		}
		return cl
	})
	if err != nil {
		t.Fatal(err)
	}
	// d is untouched.
	jd, _ := out.Feature("d")
	if !jd.Equal(d) {
		t.Fatal("untransformed group member changed")
	}
	jc, _ := out.Feature("c")
	if jc.Row(0)[0] != 8 || jc.Row(2)[0] != 11 {
		t.Fatalf("transformed member wrong: %v", jc)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}
