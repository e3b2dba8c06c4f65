package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
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

func refPairs(vals [][2]int32) []byte {
	var out []byte
	for _, v := range vals {
		out = le.AppendUint32(le.AppendUint32(out, uint32(v[0])), uint32(v[1]))
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

	samePair := func(a, b [2]int32) bool { return a == b }
	for name, vals := range map[string][][2]int32{
		"empty":    {},
		"one":      {{3, 4}},
		"negative": {{-1, math.MaxInt32}, {math.MinInt32, 0}},
	} {
		checkCells(t, "pairs/"+name, vals, refPairs(vals), samePair)
	}
}

// TestBlocksMatchPerElementReference: the public block forms are a
// uvarint count (values, int32s) or nothing (float32s, dense cells)
// before the reference's bytes, and the Decoder reads the reference's
// bytes back bit for bit.
func TestBlocksMatchPerElementReference(t *testing.T) {
	vals := []Value{math.MinInt64, math.MaxInt64, -3}
	want := append(binary.AppendUvarint(nil, uint64(len(vals))), refValues(vals)...)
	if got := AppendValues(nil, vals); !bytes.Equal(got, want) {
		t.Fatalf("AppendValues wrote %x, reference %x", got, want)
	}
	d := NewDecoder(want)
	back, err := d.Values()
	if err != nil || len(back) != len(vals) || back[0] != vals[0] || back[1] != vals[1] || back[2] != vals[2] {
		t.Fatalf("Values decoded %v, %v", back, err)
	}

	cells := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(-1))}
	if got := AppendFloat32s(nil, cells); !bytes.Equal(got, refFloat32s(cells)) {
		t.Fatalf("AppendFloat32s wrote %x, reference %x", got, refFloat32s(cells))
	}
	d = NewDecoder(refFloat32s(cells))
	fl, err := d.Float32s(len(cells))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if math.Float32bits(fl[i]) != math.Float32bits(cells[i]) {
			t.Fatalf("Float32s cell %d: %08x, want %08x", i, math.Float32bits(fl[i]), math.Float32bits(cells[i]))
		}
	}

	p := &PartialIKJT{Key: "k", Values: []Value{1, 2}, Lookup: [][2]int32{{0, 2}, {1, 1}, {2, 0}}}
	want = append(AppendValues(appendString([]byte{tagPartial}, p.Key), p.Values), binary.AppendUvarint(nil, 6)...)
	want = append(want, refPairs(p.Lookup)...)
	if got := AppendPartial(nil, p); !bytes.Equal(got, want) {
		t.Fatalf("AppendPartial wrote %x, reference %x", got, want)
	}
}
