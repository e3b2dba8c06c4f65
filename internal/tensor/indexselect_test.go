package tensor

import (
	"testing"
)

func TestJaggedIndexSelect(t *testing.T) {
	j := NewJagged([][]Value{{1, 2}, {3}, {}, {4, 5, 6}})
	out := JaggedIndexSelect(j, []int32{3, 0, 0, 2})
	want := NewJagged([][]Value{{4, 5, 6}, {1, 2}, {1, 2}, {}})
	if !out.Equal(want) {
		t.Fatalf("JaggedIndexSelect = %v, want %v", out, want)
	}
	if err := out.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestJaggedIndexSelectEmptyIndices(t *testing.T) {
	j := NewJagged([][]Value{{1}})
	out := JaggedIndexSelect(j, nil)
	if out.Rows() != 0 || out.NumValues() != 0 {
		t.Fatalf("empty select: rows=%d values=%d", out.Rows(), out.NumValues())
	}
}

func TestJaggedIndexSelectIdentity(t *testing.T) {
	j := NewJagged([][]Value{{1, 2}, {}, {3}})
	idx := []int32{0, 1, 2}
	if !JaggedIndexSelect(j, idx).Equal(j) {
		t.Fatal("identity select should reproduce input")
	}
}

func TestDenseIndexSelect(t *testing.T) {
	d := NewDense(3, 2)
	for i := 0; i < 3; i++ {
		for c := 0; c < 2; c++ {
			d.Set(i, c, float32(10*i+c))
		}
	}
	out := DenseIndexSelect(d, []int32{2, 2, 0})
	if out.RowsN != 3 || out.Cols != 2 {
		t.Fatalf("shape = %dx%d", out.RowsN, out.Cols)
	}
	wantRows := [][]float32{{20, 21}, {20, 21}, {0, 1}}
	for i, want := range wantRows {
		got := out.Row(i)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("row %d = %v, want %v", i, got, want)
			}
		}
	}
}

func TestDenseIndexAddIsTransposeOfSelect(t *testing.T) {
	// For y = select(x, idx), grad_x = indexAdd(zeros, idx, grad_y).
	idx := []int32{1, 0, 1, 1}
	gradY := NewDense(4, 2)
	for i := 0; i < 4; i++ {
		gradY.Set(i, 0, float32(i+1))
		gradY.Set(i, 1, float32(2*(i+1)))
	}
	gradX := NewDense(2, 2)
	DenseIndexAdd(gradX, idx, gradY)
	// Row 0 receives contribution from i=1; row 1 from i=0,2,3.
	if gradX.At(0, 0) != 2 || gradX.At(0, 1) != 4 {
		t.Errorf("gradX row 0 = %v", gradX.Row(0))
	}
	if gradX.At(1, 0) != 1+3+4 || gradX.At(1, 1) != 2+6+8 {
		t.Errorf("gradX row 1 = %v", gradX.Row(1))
	}
}
