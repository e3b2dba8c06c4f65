package tensor

import (
	"bytes"
	"testing"
)

func TestSerializeJaggedRoundTrip(t *testing.T) {
	j := NewJagged([][]Value{{1, -2, 3}, {}, {1 << 50}})
	var buf bytes.Buffer
	if err := WriteJagged(&buf, j); err != nil {
		t.Fatalf("WriteJagged: %v", err)
	}
	back, err := ReadJagged(&buf)
	if err != nil {
		t.Fatalf("ReadJagged: %v", err)
	}
	if !back.Equal(j) {
		t.Fatalf("round trip: %v vs %v", j, back)
	}
}

func TestSerializeKJTRoundTrip(t *testing.T) {
	kjt := MustKJT(
		[]string{"a", "b"},
		[]Jagged{
			NewJagged([][]Value{{1}, {2, 3}}),
			NewJagged([][]Value{{}, {4}}),
		})
	var buf bytes.Buffer
	if err := WriteKJT(&buf, kjt); err != nil {
		t.Fatalf("WriteKJT: %v", err)
	}
	back, err := ReadKJT(&buf)
	if err != nil {
		t.Fatalf("ReadKJT: %v", err)
	}
	if !back.Equal(kjt) {
		t.Fatal("KJT round trip mismatch")
	}
}

func TestSerializeIKJTRoundTrip(t *testing.T) {
	ik, err := DedupJagged([]string{"c", "d"}, []Jagged{
		NewJagged([][]Value{{7, 8}, {7, 8}, {10}}),
		NewJagged([][]Value{{9}, {9}, {11}}),
	})
	if err != nil {
		t.Fatalf("DedupJagged: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteIKJT(&buf, ik); err != nil {
		t.Fatalf("WriteIKJT: %v", err)
	}
	back, err := ReadIKJT(&buf)
	if err != nil {
		t.Fatalf("ReadIKJT: %v", err)
	}
	if back.UniqueRows() != ik.UniqueRows() || back.Batch() != ik.Batch() {
		t.Fatal("shape mismatch after round trip")
	}
	if !back.ToKJT().Equal(ik.ToKJT()) {
		t.Fatal("IKJT round trip mismatch")
	}
}

func TestSerializeDenseRoundTrip(t *testing.T) {
	d := NewDense(2, 3)
	for i := range d.Data {
		d.Data[i] = float32(i) * 1.5
	}
	var buf bytes.Buffer
	if err := WriteDense(&buf, d); err != nil {
		t.Fatalf("WriteDense: %v", err)
	}
	back, err := ReadDense(&buf)
	if err != nil {
		t.Fatalf("ReadDense: %v", err)
	}
	if back.RowsN != 2 || back.Cols != 3 {
		t.Fatalf("shape = %dx%d", back.RowsN, back.Cols)
	}
	for i := range d.Data {
		if back.Data[i] != d.Data[i] {
			t.Fatalf("data[%d] = %v, want %v", i, back.Data[i], d.Data[i])
		}
	}
}

func TestSerializePartialRoundTrip(t *testing.T) {
	p := PartialDedup("f", NewJagged([][]Value{{3, 4, 5}, {4, 5, 6}, {3, 4, 5}}))
	var buf bytes.Buffer
	if err := WritePartial(&buf, p); err != nil {
		t.Fatalf("WritePartial: %v", err)
	}
	back, err := ReadPartial(&buf)
	if err != nil {
		t.Fatalf("ReadPartial: %v", err)
	}
	if back.Key != "f" || !back.ToJagged().Equal(p.ToJagged()) {
		t.Fatal("partial round trip mismatch")
	}
}

func TestSerializeRejectsBadTag(t *testing.T) {
	buf := bytes.NewBuffer([]byte{99, 0, 0})
	if _, err := ReadJagged(buf); err == nil {
		t.Error("ReadJagged accepted bad tag")
	}
	buf = bytes.NewBuffer([]byte{99})
	if _, err := ReadKJT(buf); err == nil {
		t.Error("ReadKJT accepted bad tag")
	}
	buf = bytes.NewBuffer([]byte{99})
	if _, err := ReadIKJT(buf); err == nil {
		t.Error("ReadIKJT accepted bad tag")
	}
}

func TestSerializeRejectsTruncation(t *testing.T) {
	j := NewJagged([][]Value{{1, 2, 3}})
	var buf bytes.Buffer
	if err := WriteJagged(&buf, j); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut += 3 {
		r := bytes.NewBuffer(full[:cut])
		if _, err := ReadJagged(r); err == nil {
			t.Fatalf("accepted truncation at %d bytes", cut)
		}
	}
}

// TestDecoderInputsAgree: a slice and a byte reader are two inputs to one
// decoder. On a whole encoding followed by other bytes both decode the
// same object and stop at its end; on every truncation both fail — the
// slice input without reading past what it was given.
func TestDecoderInputsAgree(t *testing.T) {
	k, err := NewKJT([]string{"a", "bb"}, []Jagged{
		NewJagged([][]Value{{1, 2}, {}, {3}}),
		NewJagged([][]Value{{-4}, {5, 6, 7}, {}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ik, err := NewDeduper().Dedup([]string{"a", "bb"}, []Jagged{k.FeatureAt(0), k.FeatureAt(1)})
	if err != nil {
		t.Fatal(err)
	}
	p := PartialDedup("seq", NewJagged([][]Value{{3, 4, 5}, {4, 5, 6}, {3, 4, 5}}))
	d := NewDense(2, 3)
	for i := range d.Data {
		d.Data[i] = float32(i) - 1.5
	}
	for name, tc := range map[string]struct {
		enc    []byte
		decode func(*Decoder) ([]byte, error)
	}{
		"jagged": {AppendJagged(nil, k.FeatureAt(1)), func(d *Decoder) ([]byte, error) {
			j, err := d.Jagged()
			return AppendJagged(nil, j), err
		}},
		"kjt": {AppendKJT(nil, k), func(d *Decoder) ([]byte, error) {
			k, err := d.KJT()
			if err != nil {
				return nil, err
			}
			return AppendKJT(nil, k), nil
		}},
		"ikjt": {AppendIKJT(nil, ik), func(d *Decoder) ([]byte, error) {
			ik, err := d.IKJT()
			if err != nil {
				return nil, err
			}
			return AppendIKJT(nil, ik), nil
		}},
		"dense": {AppendDense(nil, d), func(d *Decoder) ([]byte, error) {
			v, err := d.Dense()
			return AppendDense(nil, v), err
		}},
		"partial": {AppendPartial(nil, p), func(d *Decoder) ([]byte, error) {
			p, err := d.Partial()
			if err != nil {
				return nil, err
			}
			return AppendPartial(nil, p), nil
		}},
	} {
		followed := append(append([]byte(nil), tc.enc...), "next"...)
		fromSlice := NewDecoder(followed)
		got, err := tc.decode(&fromSlice)
		if err != nil || !bytes.Equal(got, tc.enc) || string(fromSlice.Rest()) != "next" {
			t.Fatalf("%s from a slice: %v, %d bytes left", name, err, len(fromSlice.Rest()))
		}
		r := bytes.NewReader(followed)
		fromReader := NewReaderDecoder(r)
		got, err = tc.decode(&fromReader)
		fromReader.Release()
		if err != nil || !bytes.Equal(got, tc.enc) || r.Len() != len("next") {
			t.Fatalf("%s from a reader: %v, %d bytes left", name, err, r.Len())
		}
		for cut := 0; cut < len(tc.enc); cut++ {
			fromSlice, fromReader := NewDecoder(tc.enc[:cut]), NewReaderDecoder(bytes.NewReader(tc.enc[:cut]))
			_, serr := tc.decode(&fromSlice)
			_, rerr := tc.decode(&fromReader)
			fromReader.Release()
			if serr == nil || rerr == nil {
				t.Fatalf("%s cut at %d of %d bytes decoded: slice %v, reader %v", name, cut, len(tc.enc), serr, rerr)
			}
		}
	}
}

func TestKJTOperations(t *testing.T) {
	kjt := MustKJT(
		[]string{"a", "b", "c"},
		[]Jagged{
			NewJagged([][]Value{{1}, {2}}),
			NewJagged([][]Value{{3}, {4}}),
			NewJagged([][]Value{{5}, {6}}),
		})
	sel, err := kjt.Select([]string{"c", "a"})
	if err != nil {
		t.Fatalf("Select: %v", err)
	}
	if sel.NumKeys() != 2 || sel.KeyAt(0) != "c" || sel.KeyAt(1) != "a" {
		t.Fatalf("Select keys = %v", sel.Keys())
	}
	if _, err := kjt.Select([]string{"zzz"}); err == nil {
		t.Error("Select of missing key should error")
	}

	rest := kjt.Without(map[string]bool{"b": true})
	if rest.NumKeys() != 2 || rest.HasKey("b") {
		t.Fatalf("Without keys = %v", rest.Keys())
	}

	other := MustKJT([]string{"d"}, []Jagged{NewJagged([][]Value{{7}, {8}})})
	merged, err := rest.Merge(other)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if merged.NumKeys() != 3 {
		t.Fatalf("merged keys = %v", merged.Keys())
	}
	if _, err := kjt.Merge(kjt); err == nil {
		t.Error("Merge with duplicate keys should error")
	}

	if err := kjt.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	sorted := kjt.SortedKeys()
	if sorted[0] != "a" || sorted[2] != "c" {
		t.Errorf("SortedKeys = %v", sorted)
	}
}

func TestKJTConstructorErrors(t *testing.T) {
	if _, err := NewKJT([]string{"a"}, nil); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := NewKJT([]string{"a", "a"}, []Jagged{{}, {}}); err == nil {
		t.Error("duplicate keys should error")
	}
	if _, err := NewKJT([]string{"a", "b"}, []Jagged{
		NewJagged([][]Value{{1}}),
		NewJagged([][]Value{{1}, {2}}),
	}); err == nil {
		t.Error("row mismatch should error")
	}
}
