package tensor

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// jaggedGen is a quick.Generator-compatible random jagged batch with
// session-like duplication so dedup paths are exercised.
type jaggedBatch struct {
	Rows [][]Value
}

func (jaggedBatch) Generate(rng *rand.Rand, size int) reflect.Value {
	n := rng.Intn(size%64 + 2)
	rows := make([][]Value, n)
	var prev []Value
	for i := range rows {
		if i > 0 && rng.Intn(3) != 0 {
			rows[i] = append([]Value(nil), prev...) // duplicate prior row
		} else {
			row := make([]Value, rng.Intn(12))
			for c := range row {
				row[c] = Value(rng.Int63n(1 << 20))
			}
			rows[i] = row
		}
		prev = rows[i]
	}
	return reflect.ValueOf(jaggedBatch{Rows: rows})
}

var quickCfg = &quick.Config{MaxCount: 200}

// Property: IKJT round trip is lossless for any batch.
func TestQuickIKJTRoundTrip(t *testing.T) {
	f := func(b jaggedBatch) bool {
		j := NewJagged(b.Rows)
		ik, err := DedupJagged([]string{"f"}, []Jagged{j})
		if err != nil {
			return false
		}
		if ik.Validate() != nil {
			return false
		}
		return ik.ToKJT().FeatureAt(0).Equal(j)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: dedup never increases the values slice and factor >= 1.
func TestQuickDedupNeverGrows(t *testing.T) {
	f := func(b jaggedBatch) bool {
		j := NewJagged(b.Rows)
		ik, err := DedupJagged([]string{"f"}, []Jagged{j})
		if err != nil {
			return false
		}
		dd, _ := ik.Deduped("f")
		return dd.NumValues() <= j.NumValues() && ik.MeasuredFactor() >= 1
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: SDD wire bytes of the IKJT never exceed the KJT's (the paper's
// "IKJTs strictly decrease over-the-network tensor sizes" claim; equality
// happens only when nothing deduplicates and offsets counts match).
func TestQuickSDDBytesNeverExceedKJT(t *testing.T) {
	f := func(b jaggedBatch) bool {
		j := NewJagged(b.Rows)
		ik, err := DedupJagged([]string{"f"}, []Jagged{j})
		if err != nil {
			return false
		}
		return ik.SDDWireBytes() <= j.WireBytes()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: partial IKJT round trip is lossless and never stores more
// values than the original.
func TestQuickPartialRoundTrip(t *testing.T) {
	f := func(b jaggedBatch) bool {
		j := NewJagged(b.Rows)
		p := PartialDedup("f", j)
		if p.Validate() != nil {
			return false
		}
		return p.ToJagged().Equal(j) && len(p.Values) <= j.NumValues()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: partial dedup is at least as effective as exact dedup on the
// stored-values metric (it subsumes exact matches).
func TestQuickPartialSubsumesExact(t *testing.T) {
	f := func(b jaggedBatch) bool {
		j := NewJagged(b.Rows)
		ik, err := DedupJagged([]string{"f"}, []Jagged{j})
		if err != nil {
			return false
		}
		dd, _ := ik.Deduped("f")
		p := PartialDedup("f", j)
		return len(p.Values) <= dd.NumValues()
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: grouped dedup expansion reproduces every feature exactly.
func TestQuickGroupedRoundTrip(t *testing.T) {
	f := func(a, b jaggedBatch) bool {
		// Force equal row counts by truncation.
		n := len(a.Rows)
		if len(b.Rows) < n {
			n = len(b.Rows)
		}
		ja := NewJagged(a.Rows[:n])
		jb := NewJagged(b.Rows[:n])
		ik, err := DedupJagged([]string{"x", "y"}, []Jagged{ja, jb})
		if err != nil {
			return false
		}
		out := ik.ToKJT()
		gx, _ := out.Feature("x")
		gy, _ := out.Feature("y")
		return gx.Equal(ja) && gy.Equal(jb)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: serialization round trips byte-exactly.
func TestQuickSerializationRoundTrip(t *testing.T) {
	f := func(b jaggedBatch) bool {
		j := NewJagged(b.Rows)
		d := NewDecoder(AppendJagged(nil, j))
		back, err := d.Jagged()
		if err != nil || !back.Equal(j) {
			return false
		}

		ik, err := DedupJagged([]string{"f"}, []Jagged{j})
		if err != nil {
			return false
		}
		d = NewDecoder(AppendIKJT(nil, ik))
		back2, err := d.IKJT()
		if err != nil {
			return false
		}
		return back2.ToKJT().FeatureAt(0).Equal(j)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: JaggedIndexSelect commutes with row materialization.
func TestQuickIndexSelectConsistent(t *testing.T) {
	f := func(b jaggedBatch, seed int64) bool {
		j := NewJagged(b.Rows)
		if j.Rows() == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		idx := make([]int32, rng.Intn(2*j.Rows()+1))
		for i := range idx {
			idx[i] = int32(rng.Intn(j.Rows()))
		}
		out := JaggedIndexSelect(j, idx)
		if out.Validate() != nil {
			return false
		}
		for i, ix := range idx {
			got, want := out.Row(i), j.Row(int(ix))
			if len(got) != len(want) {
				return false
			}
			for c := range want {
				if got[c] != want[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
