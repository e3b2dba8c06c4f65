package tensor

import (
	"testing"
)

func TestNewJaggedBasics(t *testing.T) {
	j := NewJagged([][]Value{{1, 2}, {}, {3, 4, 5}})
	if got := j.Rows(); got != 3 {
		t.Fatalf("Rows() = %d, want 3", got)
	}
	if got := j.NumValues(); got != 5 {
		t.Fatalf("NumValues() = %d, want 5", got)
	}
	wantOff := []int32{0, 2, 2}
	for i, w := range wantOff {
		if j.Offsets[i] != w {
			t.Errorf("Offsets[%d] = %d, want %d", i, j.Offsets[i], w)
		}
	}
	if got := j.RowLen(1); got != 0 {
		t.Errorf("RowLen(1) = %d, want 0", got)
	}
	if got := j.RowLen(2); got != 3 {
		t.Errorf("RowLen(2) = %d, want 3", got)
	}
	if err := j.Validate(); err != nil {
		t.Errorf("Validate() = %v", err)
	}
}

// TestPaperFigure5KJT reproduces the paper's Figure 5 KJT example: feature
// a over rows [[1,2], [], [1,2]] becomes values [1,2,1,2], offsets [0,2,2].
func TestPaperFigure5KJT(t *testing.T) {
	j := NewJagged([][]Value{{1, 2}, {}, {1, 2}})
	wantVals := []Value{1, 2, 1, 2}
	wantOffs := []int32{0, 2, 2}
	if len(j.Values) != len(wantVals) {
		t.Fatalf("values = %v, want %v", j.Values, wantVals)
	}
	for i := range wantVals {
		if j.Values[i] != wantVals[i] {
			t.Fatalf("values = %v, want %v", j.Values, wantVals)
		}
	}
	for i := range wantOffs {
		if j.Offsets[i] != wantOffs[i] {
			t.Fatalf("offsets = %v, want %v", j.Offsets, wantOffs)
		}
	}
}

func TestJaggedRowAccess(t *testing.T) {
	rows := [][]Value{{10}, {20, 21, 22}, {}, {30, 31}}
	j := NewJagged(rows)
	for i, want := range rows {
		got := j.Row(i)
		if len(got) != len(want) {
			t.Fatalf("Row(%d) = %v, want %v", i, got, want)
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("Row(%d) = %v, want %v", i, got, want)
			}
		}
	}
}

func TestJaggedToRowsRoundTrip(t *testing.T) {
	rows := [][]Value{{5, 6, 7}, {}, {8}, {9, 10}}
	j := NewJagged(rows)
	back := j.ToRows()
	j2 := NewJagged(back)
	if !j.Equal(j2) {
		t.Fatalf("round trip mismatch: %v vs %v", j, j2)
	}
}

func TestJaggedEmpty(t *testing.T) {
	j := NewJagged(nil)
	if j.Rows() != 0 || j.NumValues() != 0 {
		t.Fatalf("empty jagged has %d rows, %d values", j.Rows(), j.NumValues())
	}
	if err := j.Validate(); err != nil {
		t.Errorf("Validate() on empty = %v", err)
	}
	e := EmptyJagged(4)
	if e.Rows() != 4 || e.NumValues() != 0 {
		t.Fatalf("EmptyJagged(4): rows=%d values=%d", e.Rows(), e.NumValues())
	}
	for i := 0; i < 4; i++ {
		if e.RowLen(i) != 0 {
			t.Errorf("EmptyJagged row %d has len %d", i, e.RowLen(i))
		}
	}
}

func TestJaggedValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name string
		j    Jagged
	}{
		{"first offset nonzero", Jagged{Values: []Value{1}, Offsets: []int32{1}}},
		{"non-monotone", Jagged{Values: []Value{1, 2, 3}, Offsets: []int32{0, 2, 1}}},
		{"offset beyond values", Jagged{Values: []Value{1}, Offsets: []int32{0, 5}}},
		{"zero rows with values", Jagged{Values: []Value{1}}},
	}
	for _, tc := range cases {
		if err := tc.j.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestJaggedWireBytes(t *testing.T) {
	j := NewJagged([][]Value{{1, 2, 3}, {4}})
	want := 4*ValueBytes + 2*OffsetBytes
	if got := j.WireBytes(); got != want {
		t.Errorf("WireBytes() = %d, want %d", got, want)
	}
}

func TestJaggedConcat(t *testing.T) {
	a := NewJagged([][]Value{{1, 2}, {3}})
	b := NewJagged([][]Value{{}, {4, 5}})
	c := a.Concat(b)
	want := NewJagged([][]Value{{1, 2}, {3}, {}, {4, 5}})
	if !c.Equal(want) {
		t.Fatalf("Concat = %v, want %v", c, want)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate() = %v", err)
	}
}

func TestJaggedCloneIndependent(t *testing.T) {
	a := NewJagged([][]Value{{1, 2}})
	b := a.Clone()
	b.Values[0] = 99
	if a.Values[0] == 99 {
		t.Fatal("Clone shares values storage")
	}
}

func TestJaggedString(t *testing.T) {
	j := NewJagged([][]Value{{1, 2}, {}})
	if got := j.String(); got != "[[1 2] []]" {
		t.Errorf("String() = %q", got)
	}
}

func TestDenseBasics(t *testing.T) {
	d := NewDense(2, 3)
	d.Set(1, 2, 5.5)
	if got := d.At(1, 2); got != 5.5 {
		t.Errorf("At(1,2) = %v, want 5.5", got)
	}
	if got := d.WireBytes(); got != 24 {
		t.Errorf("WireBytes() = %d, want 24", got)
	}
	row := d.Row(1)
	if len(row) != 3 || row[2] != 5.5 {
		t.Errorf("Row(1) = %v", row)
	}
	c := d.Clone()
	c.Set(0, 0, 1)
	if d.At(0, 0) == 1 {
		t.Error("Clone shares storage")
	}
}

// TestJaggedRowRange: a row range is one contiguous value copy with
// rebased offsets, for every window including the empty and trailing ones,
// and AppendRows stitches ranges back into the original.
func TestJaggedRowRange(t *testing.T) {
	j := NewJagged([][]Value{{1, 2}, {}, {3, 4, 5}, {6}, {}})
	for lo := 0; lo <= j.Rows(); lo++ {
		for hi := lo; hi <= j.Rows(); hi++ {
			got := j.RowRange(lo, hi)
			want := NewJagged(j.ToRows()[lo:hi])
			if !got.Equal(want) {
				t.Fatalf("RowRange(%d,%d) = %v, want %v", lo, hi, got, want)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("RowRange(%d,%d): %v", lo, hi, err)
			}
			var stitched Jagged
			stitched.AppendRows(j, 0, lo)
			stitched.AppendRows(j, lo, hi)
			stitched.AppendRows(j, hi, j.Rows())
			if !stitched.Equal(j) {
				t.Fatalf("AppendRows split at %d,%d = %v, want %v", lo, hi, stitched, j)
			}
		}
	}
	got := j.RowRange(2, 4)
	got.Values[0] = 99
	if j.Values[2] == 99 {
		t.Fatal("RowRange shares values storage")
	}
}
