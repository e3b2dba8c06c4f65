package dwrf

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/etl"
)

// fuzzSeedFile is a small real file: several stripes, every column kind.
// Clustered, its rows are ordered by session as the ETL writes them, so
// most of its user features' rows repeat the row before and are runs;
// with windows, its lists also slide from row to row, as sequence
// features do, so its rows are shifts of the row before and
// back-references to rows further back.
func fuzzSeedFile(f *testing.F, clustered, windows bool) ([]byte, *FileReader) {
	schema := testSchema()
	rows := testSamples(f, schema, 3)
	if clustered {
		rows = etl.ClusterBySession(rows)
	}
	if windows {
		rows = withLists(rows, func(i, fi int) []int64 { return window(i/2, fi+7*(i%2)) })
	}
	data, _ := writeFile(f, schema, rows, 8)
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
// truncations, and single-byte corruptions of its footer; and the file
// clustered, and clustered with sliding windows, whole and with a byte
// flipped inside each stripe.
func FuzzOpenReader(f *testing.F) {
	data, r := fuzzSeedFile(f, false, false)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(data[:trailerLen+len(magic)])
	for off := int(r.body); off < len(data); off += 3 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x80
		f.Add(bad)
	}
	for _, windows := range []bool{false, true} {
		clustered, r := fuzzSeedFile(f, true, windows)
		f.Add(clustered)
		for i := range r.stripes {
			off, n := r.StripeByteRange(i)
			bad := append([]byte(nil), clustered...)
			bad[off+n/2] ^= 0x80
			f.Add(bad)
		}
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

// FuzzDecodeStripe feeds arbitrary bytes, as one whole stripe, to the
// column decoder under the seed file's schema and an arbitrary dense width:
// it decodes every column or fails with an error.
func FuzzDecodeStripe(f *testing.F) {
	data, r := fuzzSeedFile(f, false, false)
	for i := range r.stripes {
		off, n := r.StripeByteRange(i)
		stripe := data[off : off+n]
		f.Add(stripe, r.dense)
		f.Add(stripe[:len(stripe)/2], r.dense)
		f.Add(stripe, r.dense+1)
	}
	for _, windows := range []bool{false, true} {
		clustered, rc := fuzzSeedFile(f, true, windows)
		for i := range rc.stripes {
			off, n := rc.StripeByteRange(i)
			f.Add(clustered[off:off+n], rc.dense)
		}
	}
	keys := r.SparseKeys()
	f.Fuzz(func(t *testing.T, stripe []byte, dense int) {
		src, err := wholeStripe(stripe, firstSparse+len(keys))
		if err != nil {
			return
		}
		c, err := decodeStripe(src, keys, dense, allColumns(len(keys)))
		if err != nil {
			return
		}
		if len(c.Columns()) != len(keys) || len(c.Dense()) != c.Rows()*dense {
			t.Fatalf("chunk has %d sparse columns, %d dense values for %d rows; schema is %d, %d",
				len(c.Columns()), len(c.Dense()), c.Rows(), len(keys), dense)
		}
		for p := range keys {
			if got := c.Jagged(p).Rows(); got != c.Rows() {
				t.Fatalf("column %d has %d rows, chunk %d", p, got, c.Rows())
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
	data, r := fuzzSeedFile(f, false, false)
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
	for _, windows := range []bool{false, true} {
		clustered, r := fuzzSeedFile(f, true, windows)
		f.Add(clustered)
		for i := range r.stripes {
			off, n := r.StripeByteRange(i)
			bad := append([]byte(nil), clustered...)
			bad[off+n/2] ^= 0x21
			f.Add(bad)
		}
	}
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
