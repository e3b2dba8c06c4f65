package dwrf

import (
	"bytes"
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

// FuzzStripeColumns holds the per-stripe read — what the reader tier fills
// by — to the whole-file read on arbitrary bytes, under the full projection
// (one fetch per stripe, stripe 0's from the header magic on) and a partial
// one (header, then runs of wanted streams): either some stripe fails and
// ReadColumns fails, or every stripe decodes and ReadColumns returns exactly
// their rows, in order. Stripes are read last to first, so a read that
// leaned on its predecessor's state would show. As for FuzzOpenReader, the
// input decodes or fails with an error: never a panic, never an allocation
// sized by a forged count.
func FuzzStripeColumns(f *testing.F) {
	data, r := fuzzSeedFile(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	for i := range r.stripes {
		off, n := r.StripeByteRange(i)
		for _, at := range []int64{off, off + 1, off + n/2, off + n - 1} { // row count, column count, a stream, the last byte
			bad := append([]byte(nil), data...)
			bad[at] ^= 0x21
			f.Add(bad)
		}
	}
	footer := append([]byte(nil), data...)
	footer[r.body+1] ^= 0x08 // stripe 0's offset
	f.Add(footer)
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(data)
		if err != nil {
			return
		}
		nKeys := len(r.SparseKeys())
		var some []int
		for col := nKeys - 1; col >= 0; col -= 2 {
			some = append(some, col)
		}
		for _, cols := range [][]int{allColumns(nKeys), some} {
			stripes := make([]*Chunk, r.NumStripes())
			var stripeErr error
			for i := len(stripes) - 1; i >= 0; i-- {
				if stripes[i], err = r.StripeColumns(i, cols); err != nil {
					stripeErr = err
				} else if got := stripes[i].Rows(); got != r.StripeRows(i) {
					t.Fatalf("stripe %d decoded to %d rows, footer records %d", i, got, r.StripeRows(i))
				}
			}
			whole, err := r.ReadColumns(context.Background(), cols)
			if (err != nil) != (stripeErr != nil) {
				t.Fatalf("cols %v: a stripe failed with %v, ReadColumns with %v", cols, stripeErr, err)
			}
			if err != nil {
				continue
			}
			if whole.Rows() != r.NumRows() {
				t.Fatalf("cols %v: ReadColumns returned %d rows, footer records %d", cols, whole.Rows(), r.NumRows())
			}
			lo := 0
			for i, stripe := range stripes {
				if !bytes.Equal(whole.Slice(lo, lo+stripe.Rows()).AppendTo(nil), stripe.AppendTo(nil)) {
					t.Fatalf("cols %v: rows [%d,%d) of ReadColumns differ from stripe %d read alone", cols, lo, lo+stripe.Rows(), i)
				}
				lo += stripe.Rows()
			}
		}
	})
}
