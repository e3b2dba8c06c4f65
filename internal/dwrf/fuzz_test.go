package dwrf

import (
	"context"
	"testing"
)

// fuzzSeedFile is a small real file: several stripes, every column kind.
func fuzzSeedFile(f *testing.F) ([]byte, *FileReader) {
	schema := testSchema()
	data, _ := writeFile(f, schema, testSamples(f, schema, 3), 8)
	r, err := OpenReader(data)
	if err != nil {
		f.Fatal(err)
	}
	return data, r
}

// FuzzOpenReader feeds arbitrary bytes to the file reader: open, a full
// read through the row adapter, and a projected read. A DWRF file comes
// from a blob store the reader does not control, so the contract is that
// any input decodes or fails with an error — never a panic or an
// allocation sized by a forged count. Seeds are a real written file, its
// truncations, and single-byte corruptions of its footer.
func FuzzOpenReader(f *testing.F) {
	data, r := fuzzSeedFile(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:trailerLen+len(magic)])
	for off := int(r.body); off < len(data); off += 3 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x80
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(data)
		if err != nil {
			return
		}
		rows, err := r.ReadAll()
		if err == nil && len(rows) != r.NumRows() {
			t.Fatalf("ReadAll returned %d rows, footer records %d", len(rows), r.NumRows())
		}
		nKeys := len(r.SparseKeys())
		var cols []int
		for col := nKeys - 1; col >= 0; col -= 2 {
			cols = append(cols, col)
		}
		chunk, err := r.ReadColumns(context.Background(), cols)
		if err != nil {
			return
		}
		for _, s := range chunk.Samples() {
			if len(s.Sparse) != nKeys || len(s.Dense) != r.DenseCount() {
				t.Fatalf("row has %d sparse lists, %d dense; schema is %d, %d", len(s.Sparse), len(s.Dense), nKeys, r.DenseCount())
			}
		}
	})
}

// FuzzDecodeStripe feeds arbitrary bytes to the stripe decoder under the
// seed file's schema and an arbitrary dense width.
func FuzzDecodeStripe(f *testing.F) {
	data, r := fuzzSeedFile(f)
	for i := range r.stripes {
		off, n := r.StripeByteRange(i)
		stripe := data[off : off+n]
		f.Add(stripe, r.dense)
		f.Add(stripe[:len(stripe)/2], r.dense)
		f.Add(stripe, r.dense+1)
	}
	keys := r.SparseKeys()
	f.Fuzz(func(t *testing.T, stripe []byte, dense int) {
		rows, err := DecodeStripe(stripe, keys, dense)
		if err != nil {
			return
		}
		for _, s := range rows {
			if len(s.Sparse) != len(keys) || len(s.Dense) != dense {
				t.Fatalf("row has %d sparse lists, %d dense; schema is %d, %d", len(s.Sparse), len(s.Dense), len(keys), dense)
			}
		}
	})
}
