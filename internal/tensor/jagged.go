// Package tensor implements the sparse-tensor formats at the heart of RecD:
// JaggedTensor, KeyedJaggedTensor (KJT), InverseKeyedJaggedTensor (IKJT,
// including grouped and partial variants), and the jagged index-select
// primitive used to convert IKJTs back to KJTs (paper §4.2, §5, §7).
//
// The encoding follows the paper's convention: a jagged tensor with B rows
// stores a flat values slice plus an offsets slice with one entry per row;
// offsets[i] is the start of row i in values, and the length of row i is
// offsets[i+1]-offsets[i] (or len(values)-offsets[i] for the last row).
//
// The package also holds the module's one binary codec (serialize.go):
// append forms to encode and a Decoder to decode. Every binary format is
// written in it — batches, chunks, file units, the stats frame, the
// trainer checkpoint and the raw inference log — and every decoder of
// outside bytes follows its one length rule: a declared length is believed
// only as its bytes arrive (ReadInto).
package tensor

import (
	"fmt"
	"strings"
)

// Value is the element type of sparse feature lists (categorical IDs).
type Value = int64

// ValueBytes is the wire size of one sparse value.
const ValueBytes = 8

// OffsetBytes is the wire size of one offset or inverse-lookup entry.
const OffsetBytes = 4

// Jagged is a tensor with one jagged (variable-length) dimension: B rows,
// each a variable-length list of values. It is the Go analogue of a
// TorchRec JaggedTensor.
type Jagged struct {
	// Values holds all rows' elements back to back.
	Values []Value
	// Offsets has one entry per row; Offsets[i] is the index in Values
	// where row i begins. Offsets[0] is always 0.
	Offsets []int32
}

// NewJagged builds a Jagged from explicit per-row lists.
func NewJagged(rows [][]Value) Jagged {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	j := Jagged{
		Values:  make([]Value, 0, total),
		Offsets: make([]int32, len(rows)),
	}
	for i, r := range rows {
		j.Offsets[i] = int32(len(j.Values))
		j.Values = append(j.Values, r...)
	}
	return j
}

// Rows reports the number of rows (the batch dimension).
func (j Jagged) Rows() int { return len(j.Offsets) }

// RowBounds returns the [start, end) bounds of row i in Values.
func (j Jagged) RowBounds(i int) (start, end int) {
	start = int(j.Offsets[i])
	if i+1 < len(j.Offsets) {
		end = int(j.Offsets[i+1])
	} else {
		end = len(j.Values)
	}
	return start, end
}

// Row returns the value slice for row i. The slice aliases the underlying
// Values storage; callers must not mutate it.
func (j Jagged) Row(i int) []Value {
	start, end := j.RowBounds(i)
	return j.Values[start:end]
}

// RowLen returns the length of row i.
func (j Jagged) RowLen(i int) int {
	start, end := j.RowBounds(i)
	return end - start
}

// NumValues reports the total number of stored values.
func (j Jagged) NumValues() int { return len(j.Values) }

// WireBytes reports the number of bytes needed to transmit this tensor
// (values + offsets). This is the quantity RecD reduces during sparse data
// distribution (paper §5).
func (j Jagged) WireBytes() int {
	return len(j.Values)*ValueBytes + len(j.Offsets)*OffsetBytes
}

// Validate checks structural invariants.
func (j Jagged) Validate() error {
	if len(j.Offsets) == 0 {
		if len(j.Values) != 0 {
			return fmt.Errorf("tensor: jagged with 0 rows has %d values", len(j.Values))
		}
		return nil
	}
	if j.Offsets[0] != 0 {
		return fmt.Errorf("tensor: first offset is %d, want 0", j.Offsets[0])
	}
	prev := int32(0)
	for i, off := range j.Offsets {
		if off < prev {
			return fmt.Errorf("tensor: offsets not monotone at row %d: %d < %d", i, off, prev)
		}
		if int(off) > len(j.Values) {
			return fmt.Errorf("tensor: offset %d at row %d exceeds %d values", off, i, len(j.Values))
		}
		prev = off
	}
	return nil
}

// Equal reports whether two jagged tensors encode identical logical data
// (same rows with same values; offset slices must match exactly because the
// encoding is canonical).
func (j Jagged) Equal(o Jagged) bool {
	if len(j.Offsets) != len(o.Offsets) || len(j.Values) != len(o.Values) {
		return false
	}
	for i := range j.Offsets {
		if j.Offsets[i] != o.Offsets[i] {
			return false
		}
	}
	for i := range j.Values {
		if j.Values[i] != o.Values[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (j Jagged) Clone() Jagged {
	return Jagged{
		Values:  append([]Value(nil), j.Values...),
		Offsets: append([]int32(nil), j.Offsets...),
	}
}

// ValueBounds returns the [start, end) range of Values that rows
// [lo, hi) occupy; rows of a jagged tensor are contiguous in Values, so a
// row range is one value range.
func (j Jagged) ValueBounds(lo, hi int) (start, end int) {
	if lo >= hi {
		return 0, 0
	}
	start = int(j.Offsets[lo])
	if hi < len(j.Offsets) {
		return start, int(j.Offsets[hi])
	}
	return start, len(j.Values)
}

// RowRange returns rows [lo, hi) as a new canonical tensor: one
// contiguous copy of their values, offsets rebased to start at zero.
func (j Jagged) RowRange(lo, hi int) Jagged {
	out := Jagged{Offsets: make([]int32, 0, hi-lo)}
	start, end := j.ValueBounds(lo, hi)
	out.Values = make([]Value, 0, end-start)
	out.AppendRows(j, lo, hi)
	return out
}

// AppendRows appends rows [lo, hi) of o after the rows of j, in place.
func (j *Jagged) AppendRows(o Jagged, lo, hi int) {
	start, end := o.ValueBounds(lo, hi)
	shift := int32(len(j.Values) - start)
	for _, off := range o.Offsets[lo:hi] {
		j.Offsets = append(j.Offsets, off+shift)
	}
	j.Values = append(j.Values, o.Values[start:end]...)
}

// String renders a compact human-readable form, e.g. "[[1 2] [] [3]]".
func (j Jagged) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < j.Rows(); i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v", j.Row(i))
	}
	b.WriteByte(']')
	return b.String()
}

// Dense is a 2-D row-major float32 tensor used for dense features and
// intermediate activations.
type Dense struct {
	RowsN int
	Cols  int
	Data  []float32
}

// NewDense allocates a zeroed RowsN x Cols dense tensor.
func NewDense(rows, cols int) Dense {
	return Dense{RowsN: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a slice aliasing the underlying storage.
func (d Dense) Row(i int) []float32 { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// At returns element (i, j).
func (d Dense) At(i, j int) float32 { return d.Data[i*d.Cols+j] }

// Set assigns element (i, j).
func (d Dense) Set(i, j int, v float32) { d.Data[i*d.Cols+j] = v }

// WireBytes reports the transmission size in bytes.
func (d Dense) WireBytes() int { return len(d.Data) * 4 }
