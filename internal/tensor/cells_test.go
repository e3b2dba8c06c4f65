package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// The per-element reference the cell codec must match byte for byte,
// whichever of cells_le.go and cells_portable.go this host builds.
var le = binary.LittleEndian

func refValues(vals []Value) []byte {
	var out []byte
	for _, v := range vals {
		out = le.AppendUint64(out, uint64(v))
	}
	return out
}

func refInt32s(vals []int32) []byte {
	var out []byte
	for _, v := range vals {
		out = le.AppendUint32(out, uint32(v))
	}
	return out
}

func refFloat32s(vals []float32) []byte {
	var out []byte
	for _, v := range vals {
		out = le.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

// checkCells encodes vals with appendCells after a prefix, compares the
// appended bytes with the reference's, and decodes the reference bytes
// back, comparing bits: eq must compare representations, not values, so
// NaN payloads and -0 count.
func checkCells[T cell](t *testing.T, name string, vals []T, ref []byte, eq func(a, b T) bool) {
	t.Helper()
	prefix := []byte("pre")
	got := appendCells(append([]byte(nil), prefix...), vals)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], ref) {
		t.Fatalf("%s: appendCells wrote %x, reference %x", name, got[len(prefix):], ref)
	}
	back := decodeCells[T](ref)
	if len(back) != len(vals) {
		t.Fatalf("%s: decoded %d cells of %d", name, len(back), len(vals))
	}
	for i := range vals {
		if !eq(back[i], vals[i]) {
			t.Fatalf("%s: cell %d decoded as %v, want %v", name, i, back[i], vals[i])
		}
	}
	if len(ref) > 0 {
		ref[0] ^= 0xff
		if !eq(back[0], vals[0]) {
			t.Fatalf("%s: decoded cells alias their input", name)
		}
		ref[0] ^= 0xff
	}
}

func TestCellsMatchPerElementReference(t *testing.T) {
	same := func(a, b Value) bool { return a == b }
	values := map[string][]Value{
		"empty":  {},
		"nil":    nil,
		"one":    {-1},
		"limits": {math.MinInt64, math.MaxInt64, 0, 1, -1, 1 << 40},
	}
	for name, vals := range values {
		checkCells(t, "values/"+name, vals, refValues(vals), same)
	}

	sameInt32 := func(a, b int32) bool { return a == b }
	for name, vals := range map[string][]int32{
		"empty":    {},
		"one":      {7},
		"negative": {-1, math.MinInt32, math.MaxInt32, 0, -42},
	} {
		checkCells(t, "int32s/"+name, vals, refInt32s(vals), sameInt32)
	}

	sameBits := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	negZero := float32(math.Copysign(0, -1))
	for name, vals := range map[string][]float32{
		"empty": {},
		"one":   {1.5},
		"special": {
			negZero, 0, float32(math.Inf(1)), float32(math.Inf(-1)),
			math.Float32frombits(0x7fc00001), // quiet NaN with a payload
			math.Float32frombits(0x7f800001), // signalling NaN
			math.Float32frombits(0xffffffff), // negative NaN, all payload bits
			math.SmallestNonzeroFloat32, math.MaxFloat32,
		},
	} {
		checkCells(t, "float32s/"+name, vals, refFloat32s(vals), sameBits)
	}

	pairs := [][2]int32{{-1, math.MaxInt32}, {math.MinInt32, 0}}
	flat := pairCells(pairs)
	if !slices.Equal(flat, []int32{-1, math.MaxInt32, math.MinInt32, 0}) || !slices.Equal(cellPairs(flat), pairs) {
		t.Fatalf("pairs %v flatten to %v and back to %v", pairs, flat, cellPairs(flat))
	}
}

// refBlock is an integer block written the plain way, one byte of one
// value at a time: the count, the width byte, the zigzag base, then each
// value's offset over the base in the fewest bytes that hold the span — or,
// when the span needs a cell's whole width (and an int32 block's least
// value is not negative), the cells' own bytes over base 0.
func refBlock(vals []int64, cellWidth int) []byte {
	out := binary.AppendUvarint(nil, uint64(len(vals)))
	if len(vals) == 0 {
		return append(out, 0)
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo, hi = min(lo, v), max(hi, v)
	}
	w := 1
	for w < 8 && (uint64(hi)-uint64(lo))>>(8*w) != 0 {
		w++
	}
	if w == cellWidth && (w == 8 || lo >= 0) {
		lo = 0
	}
	out = binary.AppendVarint(append(out, byte(w)), lo)
	for _, v := range vals {
		off := uint64(v) - uint64(lo)
		for i := range w {
			out = append(out, byte(off>>(8*i)))
		}
	}
	return out
}

// TestBlocksMatchPerElementReference: each public block form writes what
// its per-element reference writes — an integer block refBlock's bytes,
// float32 cells their little-endian bits with no count — and the Decoder
// reads the reference's bytes back bit for bit.
func TestBlocksMatchPerElementReference(t *testing.T) {
	for name, vals := range map[string][]Value{
		"whole width": {math.MinInt64, math.MaxInt64, -3},
		"one byte":    {1000, 1002, 1255, 1000},
		"three bytes": {-5, 1 << 20, 7},
		"empty":       {},
		// Enough values to pass through the packed loops and their tails.
		"two bytes":  {900, 60000, 901, 1 << 15, 902, 903, 904, 905, 906, 907, 908, 909, 910, 911, 912, 913, 914, 915, 916},
		"four bytes": {-1 << 30, 1 << 30, -7, 8, 9, -10, 11, -12, 13},
	} {
		want := refBlock(vals, 8)
		if got := AppendValues(nil, vals); !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendValues wrote %x, reference %x", name, got, want)
		}
		d := NewDecoder(want)
		if back, err := d.Values(); err != nil || !slices.Equal(back, vals) {
			t.Fatalf("%s: Values decoded %v, %v", name, back, err)
		}
	}

	cells := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(-1))}
	if got := AppendFloat32s(nil, cells); !bytes.Equal(got, refFloat32s(cells)) {
		t.Fatalf("AppendFloat32s wrote %x, reference %x", got, refFloat32s(cells))
	}
	d := NewDecoder(refFloat32s(cells))
	fl, err := d.Float32s(len(cells))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if math.Float32bits(fl[i]) != math.Float32bits(cells[i]) {
			t.Fatalf("Float32s cell %d: %08x, want %08x", i, math.Float32bits(fl[i]), math.Float32bits(cells[i]))
		}
	}

	// A jagged tensor's offsets travel as row lengths, a partial lookup as
	// one flat block, offset then length per row.
	j := NewJagged([][]Value{{5, 6}, {}, {7, 8, 9}})
	want := append(refBlock([]int64{5, 6, 7, 8, 9}, 8), refBlock([]int64{2, 0, 3}, 4)...)
	if got := AppendJagged(nil, j); !bytes.Equal(got[1:], want) {
		t.Fatalf("AppendJagged wrote %x, reference %x", got[1:], want)
	}
	p := &PartialIKJT{Key: "k", Values: []Value{1, 2}, Lookup: [][2]int32{{0, 2}, {1, 1}, {2, 0}}}
	want = append(AppendValues(appendString([]byte{tagPartial}, p.Key), p.Values), refBlock([]int64{0, 2, 1, 1, 2, 0}, 4)...)
	if got := AppendPartial(nil, p); !bytes.Equal(got, want) {
		t.Fatalf("AppendPartial wrote %x, reference %x", got, want)
	}
}
