package dwrf

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/datagen"
)

// Fetch returns the n bytes of a file that start at off. The slice must
// not be modified by the caller and may alias the store's copy.
type Fetch func(off, n int64) ([]byte, error)

// trailerLen is the fixed tail of a file: the footer length, then
// trailerMagic.
const trailerLen = 4 + len(trailerMagic)

// FileReader decodes a DWRF file through ranged reads. Opening it fetches
// the trailer and the footer; a read then fetches only what its
// projection decodes (see StripeColumns).
type FileReader struct {
	fetch   Fetch
	body    int64 // length of the leading magic, stripes and row-key section: where the footer starts
	stripes []stripeInfo
	keys    []string
	dense   int
	rows    int

	rowKeysAt int64 // where the row-key section starts: the end of the last stripe
}

// Open parses the footer of the size-byte DWRF file behind fetch, in two
// fetches: the fixed-size trailer, which records the footer's length,
// then exactly the footer.
func Open(size int64, fetch Fetch) (*FileReader, error) {
	if size < int64(len(magic)+trailerLen) {
		return nil, fmt.Errorf("dwrf: file too short (%d bytes)", size)
	}
	r := &FileReader{fetch: fetch}
	trailer, err := r.get(size-int64(trailerLen), int64(trailerLen))
	if err != nil {
		return nil, err
	}
	switch string(trailer[4:]) {
	case trailerMagic:
	case magic, "DWR2", "DWR3":
		return nil, fmt.Errorf("dwrf: file is in a retired layout (trailer %q, not %q): re-land it with this build", trailer[4:], trailerMagic)
	default:
		return nil, fmt.Errorf("dwrf: bad trailer magic")
	}
	footerLen := int64(binary.LittleEndian.Uint32(trailer))
	r.body = size - int64(trailerLen) - footerLen
	if r.body < int64(len(magic)) {
		return nil, fmt.Errorf("dwrf: invalid footer length %d", footerLen)
	}
	footer, err := r.get(r.body, footerLen)
	if err != nil {
		return nil, err
	}
	if err := r.parseFooter(footer); err != nil {
		return nil, err
	}
	return r, nil
}

// WithFetch is the same opened file read through fetch: how a reader that
// did not open it reads its stripes with fetches of its own. The two share
// the parsed footer, which never changes once parsed.
func (r *FileReader) WithFetch(fetch Fetch) *FileReader {
	c := *r
	c.fetch = fetch
	return &c
}

// OpenReader parses the footer of a DWRF file held in memory.
func OpenReader(data []byte) (*FileReader, error) {
	if len(data) >= len(magic) && string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("dwrf: bad header magic")
	}
	return Open(int64(len(data)), FetchFrom(data))
}

// FetchFrom is the Fetch over a file already in memory.
func FetchFrom(data []byte) Fetch {
	return func(off, n int64) ([]byte, error) {
		if off < 0 || n < 0 || off > int64(len(data)) || n > int64(len(data))-off {
			return nil, fmt.Errorf("dwrf: read of %d bytes at %d beyond %d-byte file", n, off, len(data))
		}
		return data[off : off+n : off+n], nil
	}
}

// get fetches exactly [off, off+n).
func (r *FileReader) get(off, n int64) ([]byte, error) {
	b, err := r.fetch(off, n)
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != n {
		return nil, fmt.Errorf("dwrf: short read: %d of %d bytes at offset %d", len(b), n, off)
	}
	return b, nil
}

// parseFooter decodes the stripe directory and schema. Every stripe must
// lie inside the body, after the stripe before it: each bound is checked
// term by term, since a forged offset plus a forged length can wrap.
func (r *FileReader) parseFooter(footer []byte) error {
	fr := &byteReader{buf: footer}
	nStripes, err := fr.uvarint()
	if err != nil {
		return fmt.Errorf("dwrf: footer stripe count: %w", err)
	}
	if nStripes > uint64(fr.remaining())/3 { // three varints each
		return fmt.Errorf("dwrf: implausible stripe count %d", nStripes)
	}
	end := uint64(len(magic)) // where the previous stripe ended
	for i := uint64(0); i < nStripes; i++ {
		off, err1 := fr.uvarint()
		length, err2 := fr.uvarint()
		rows, err3 := fr.uvarint()
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("dwrf: footer stripe %d truncated", i)
		}
		if off < end || off > uint64(r.body) || length > uint64(r.body)-off || rows > maxStripeRows {
			return fmt.Errorf("dwrf: stripe %d out of bounds", i)
		}
		end = off + length
		r.stripes = append(r.stripes, stripeInfo{offset: int64(off), length: int64(length), rows: int(rows)})
		r.rows += int(rows)
	}
	r.rowKeysAt = int64(end)
	nKeys, err := fr.uvarint()
	if err != nil || nKeys > maxColumns || nKeys > uint64(fr.remaining()) {
		return fmt.Errorf("dwrf: footer key count invalid")
	}
	for i := uint64(0); i < nKeys; i++ {
		kl, err := fr.uvarint()
		if err != nil || kl > uint64(fr.remaining()) {
			return fmt.Errorf("dwrf: footer key %d truncated", i)
		}
		r.keys = append(r.keys, string(fr.buf[fr.pos:fr.pos+int(kl)]))
		fr.pos += int(kl)
	}
	nDense, err := fr.uvarint()
	if err != nil {
		return fmt.Errorf("dwrf: footer dense count: %w", err)
	}
	if nDense > maxDense {
		return fmt.Errorf("dwrf: implausible dense width %d", nDense)
	}
	r.dense = int(nDense)
	return nil
}

// NumRows reports the total row count.
func (r *FileReader) NumRows() int { return r.rows }

// NumStripes reports the stripe count.
func (r *FileReader) NumStripes() int { return len(r.stripes) }

// SparseKeys returns the ordered sparse feature keys recorded in the footer.
func (r *FileReader) SparseKeys() []string { return append([]string(nil), r.keys...) }

// DenseCount returns the dense feature count recorded in the footer.
func (r *FileReader) DenseCount() int { return r.dense }

// StripeRows reports the row count of stripe i.
func (r *FileReader) StripeRows(i int) int { return r.stripes[i].rows }

// StripeByteRange returns the byte extent of stripe i within the file:
// its header followed by one stream per column. DecodeStripe
// takes exactly these bytes. The reader tier does not read whole stripes
// unless it wants every column; see StripeColumns for what it fetches.
func (r *FileReader) StripeByteRange(i int) (offset, length int64) {
	return r.stripes[i].offset, r.stripes[i].length
}

// checkProjection reports whether cols names sparse columns of the file,
// each at most once.
func (r *FileReader) checkProjection(cols []int) error {
	seen := make([]bool, len(r.keys))
	for _, col := range cols {
		if col < 0 || col >= len(r.keys) || seen[col] {
			return fmt.Errorf("dwrf: projection names column %d of %d, or names it twice", col, len(r.keys))
		}
		seen[col] = true
	}
	return nil
}

// StripeColumns decodes the rows of stripe i into a chunk holding the
// sparse columns cols (indices into SparseKeys, each at most once, in the
// order the chunk is to hold them) plus the labels and dense features,
// which are always read. The row keys are not a stripe's: they are the
// file's row-key section, which only ReadRowKeys reads. It is the unit the
// reader tier fills by:
// stripes are independent (each carries its own streams, and a row refers
// only to rows of its stripe), so a file is read one stripe at a time, in any
// order, and the rows of one are usable before the next is fetched.
//
// Only what the projection decodes is fetched. When cols names every
// column that is the stripe's whole range in one fetch — stripe 0's starting
// at byte 0 of the file, so that the header magic is fetched, and checked,
// by the read that needs it first. Otherwise the stripe costs its header
// and one fetch per run of adjacent wanted streams (see fetchStripe); the
// streams of the other columns are never fetched or decoded. Either way no
// byte is fetched twice, so reading every stripe of a file under a full
// projection costs the file's size less its row-key section, counting
// Open's two fetches.
//
// The stripe's own row count is held against the footer's before anything
// is decoded.
func (r *FileReader) StripeColumns(i int, cols []int) (*Chunk, error) {
	if i < 0 || i >= len(r.stripes) {
		return nil, fmt.Errorf("dwrf: stripe %d out of range [0,%d)", i, len(r.stripes))
	}
	if err := r.checkProjection(cols); err != nil {
		return nil, err
	}
	st := r.stripes[i]
	var src stripeSource
	var err error
	if len(cols) == len(r.keys) {
		from := st.offset
		if i == 0 {
			from = 0
		}
		var buf []byte
		if buf, err = r.get(from, st.offset+st.length-from); err != nil {
			return nil, err
		}
		if i == 0 && string(buf[:len(magic)]) != magic { // parseFooter put stripe 0 behind the magic
			return nil, fmt.Errorf("dwrf: bad header magic")
		}
		src, err = wholeStripe(buf[st.offset-from:], firstSparse+len(r.keys))
	} else {
		src, err = r.fetchStripe(st.offset, st.length, cols)
	}
	if err != nil {
		return nil, err
	}
	if src.rows != st.rows {
		return nil, fmt.Errorf("dwrf: stripe %d holds %d rows, footer records %d", i, src.rows, st.rows)
	}
	return decodeStripe(src, r.keys, r.dense, cols)
}

// ReadColumns decodes every row of the file into one chunk: every stripe
// through StripeColumns, in file order from the calling goroutine, appended
// into columns sized once. The reader tier does not call it — it hands rows
// on stripe by stripe — so what is left is the whole-file read of the row
// adapters (ReadAllContext) and of tests. Cancelling ctx stops it before
// the next stripe, and ctx.Err() is returned.
func (r *FileReader) ReadColumns(ctx context.Context, cols []int) (*Chunk, error) {
	if err := r.checkProjection(cols); err != nil {
		return nil, err
	}
	if len(r.stripes) == 0 {
		return ChunkFromSamples(nil, r.keys, r.dense, cols)
	}
	parts := make([]*Chunk, len(r.stripes))
	for i := range parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if parts[i], err = r.StripeColumns(i, cols); err != nil {
			return nil, err
		}
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return Concat(parts...)
}

// ReadAll decodes every stripe. See ReadAllContext.
func (r *FileReader) ReadAll() ([]datagen.Sample, error) {
	return r.ReadAllContext(context.Background())
}

// ReadAllContext decodes every column of every row, as ReadColumns does,
// and returns the rows as views over that chunk (see Chunk.Samples) with
// their row keys set from the file's row-key section. It fetches exactly
// the file, counting Open's two fetches.
func (r *FileReader) ReadAllContext(ctx context.Context) ([]datagen.Sample, error) {
	c, err := r.ReadColumns(ctx, allColumns(len(r.keys)))
	if err != nil {
		return nil, err
	}
	rows := c.Samples()
	if err := r.ReadRowKeys(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// ReadRowKeys fetches the file's row-key section, in one fetch, and sets
// the row keys of rows — every row of the file, in order — from it. No
// stripe read fetches that section: a caller that needs rows whole reads
// it once per file. The section must hold exactly a row's session, user
// and timestamp varints and its request ID for every row (see Finish):
// its varints are read as far as its bytes go, and its request IDs only
// once their width times the rows fits the bytes left.
func (r *FileReader) ReadRowKeys(rows []datagen.Sample) error {
	if len(rows) != r.rows {
		return fmt.Errorf("dwrf: %d rows for a file of %d", len(rows), r.rows)
	}
	section, err := r.get(r.rowKeysAt, r.body-r.rowKeysAt)
	if err != nil {
		return err
	}
	kr := &byteReader{buf: section}
	for f, name := range []string{"session", "user", "timestamp"} {
		var prev int64
		for i := range rows {
			v, err := kr.varint()
			if err != nil {
				return fmt.Errorf("dwrf: row-key section ends at the %s of row %d", name, i)
			}
			prev += v
			switch s := &rows[i]; f {
			case 0:
				s.SessionID = prev
			case 1:
				s.UserID = prev
			default:
				s.Timestamp = prev
			}
		}
	}
	ids, err := kr.widthCodec()
	if err == nil && uint64(len(rows))*uint64(ids.Width) > uint64(kr.remaining()) {
		err = fmt.Errorf("of %d bytes each run past the section", ids.Width)
	}
	if err != nil {
		return fmt.Errorf("dwrf: row-key section: request IDs %w", err)
	}
	for i := range rows {
		rows[i].RequestID = ids.At(section[kr.pos:])
		kr.pos += ids.Width
	}
	if kr.remaining() > 0 {
		return fmt.Errorf("dwrf: row-key section has %d bytes past its %d rows", kr.remaining(), len(rows))
	}
	return nil
}
