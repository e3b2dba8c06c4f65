package tensor

import (
	"bytes"
	"testing"
)

func TestSerializeJaggedRoundTrip(t *testing.T) {
	j := NewJagged([][]Value{{1, -2, 3}, {}, {1 << 50}})
	d := NewDecoder(AppendJagged(nil, j))
	back, err := d.Jagged()
	if err != nil {
		t.Fatalf("Jagged: %v", err)
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
	d := NewDecoder(AppendKJT(nil, kjt))
	back, err := d.KJT()
	if err != nil {
		t.Fatalf("KJT: %v", err)
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
	d := NewDecoder(AppendIKJT(nil, ik))
	back, err := d.IKJT()
	if err != nil {
		t.Fatalf("IKJT: %v", err)
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
	dec := NewDecoder(AppendDense(nil, d))
	back, err := dec.Dense()
	if err != nil {
		t.Fatalf("Dense: %v", err)
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
	d := NewDecoder(AppendPartial(nil, p))
	back, err := d.Partial()
	if err != nil {
		t.Fatalf("Partial: %v", err)
	}
	if back.Key != "f" || !back.ToJagged().Equal(p.ToJagged()) {
		t.Fatal("partial round trip mismatch")
	}
}

func TestSerializeRejectsBadTag(t *testing.T) {
	d := NewDecoder([]byte{99, 0, 0})
	if _, err := d.Jagged(); err == nil {
		t.Error("Jagged accepted bad tag")
	}
	d = NewDecoder([]byte{99})
	if _, err := d.KJT(); err == nil {
		t.Error("KJT accepted bad tag")
	}
	d = NewDecoder([]byte{99})
	if _, err := d.IKJT(); err == nil {
		t.Error("IKJT accepted bad tag")
	}
}

func TestSerializeRejectsTruncation(t *testing.T) {
	full := AppendJagged(nil, NewJagged([][]Value{{1, 2, 3}}))
	for cut := 1; cut < len(full); cut += 3 {
		d := NewDecoder(full[:cut])
		if _, err := d.Jagged(); err == nil {
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
	if kjt.NumKeys() != 3 || kjt.Rows() != 2 {
		t.Fatalf("keys=%d rows=%d", kjt.NumKeys(), kjt.Rows())
	}
	if b, ok := kjt.Feature("b"); !ok || !b.Equal(kjt.FeatureAt(1)) {
		t.Errorf("Feature(b) = %v, %v", b, ok)
	}
	if _, ok := kjt.Feature("zzz"); ok {
		t.Error("Feature of a missing key should report false")
	}
	if err := kjt.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
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
