package dwrf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/tensor"
)

// Stream indices of the two columns every stripe leads with; sparse
// feature i is stream firstSparse+i.
const (
	metaStream  = 0
	denseStream = 1
	firstSparse = 2
)

// stripeHeader is a stripe's decoded header: the row count and every
// column stream's raw and compressed length. size is the header's own
// encoded length, which is where the first stream starts.
type stripeHeader struct {
	rows    int
	rawLen  []int
	compLen []int
	size    int
}

// parseStripeHeader decodes the header at the front of buf for a file of
// nCols column streams. A buf that ends inside the header is not an
// error: missing then reports how many of the header's varints are still
// incomplete (each needs at least one more byte), and the lengths parsed
// so far are valid. missing == 0 means the header is complete.
func parseStripeHeader(buf []byte, nCols int) (h stripeHeader, missing int, err error) {
	h.rawLen, h.compLen = make([]int, nCols), make([]int, nCols)
	r := &byteReader{buf: buf}
	total := 2 + 2*nCols
	for i := 0; i < total; i++ {
		v, err := r.uvarint()
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return h, total - i, nil
		}
		if err != nil {
			return h, 0, fmt.Errorf("dwrf: stripe header: %w", err)
		}
		switch {
		case i == 0:
			if v > maxStripeRows {
				return h, 0, fmt.Errorf("dwrf: implausible stripe row count %d", v)
			}
			h.rows = int(v)
		case i == 1:
			if v != uint64(nCols) {
				return h, 0, fmt.Errorf("dwrf: stripe has %d columns, footer schema implies %d", v, nCols)
			}
		case v > maxStreamBytes:
			return h, 0, fmt.Errorf("dwrf: column %d stream too large", (i-2)/2)
		case i%2 == 0:
			h.rawLen[(i-2)/2] = int(v)
		default:
			h.compLen[(i-2)/2] = int(v)
		}
	}
	h.size = r.pos
	return h, 0, nil
}

// stripeSource is what decoding needs of one stripe: its header and the
// compressed stream of every column to be decoded. Streams of columns
// outside the projection stay nil — they were never fetched.
type stripeSource struct {
	stripeHeader
	comp [][]byte
}

// wholeStripe builds the source of a stripe whose bytes are all in hand.
func wholeStripe(stripe []byte, nCols int) (stripeSource, error) {
	h, missing, err := parseStripeHeader(stripe, nCols)
	if err != nil {
		return stripeSource{}, err
	}
	if missing > 0 {
		return stripeSource{}, fmt.Errorf("dwrf: stripe header truncated")
	}
	src := stripeSource{stripeHeader: h, comp: make([][]byte, nCols)}
	pos := h.size
	for c, n := range h.compLen {
		if n > len(stripe)-pos {
			return stripeSource{}, fmt.Errorf("dwrf: column %d stream truncated", c)
		}
		src.comp[c] = stripe[pos : pos+n : pos+n]
		pos += n
	}
	return src, nil
}

// fetchStripe fetches, of the stripe at [off, off+length) of the file,
// exactly the header and the streams a decode of the sparse columns cols
// will read — never a byte of any other stream, and no byte twice.
//
// The header's length is not recorded anywhere, so it is read in rounds:
// every varint still incomplete needs at least one more byte, and once
// the lengths of the meta and dense streams are known those streams —
// which follow the header and are always wanted — may be read along with
// it. In practice that is two reads. The run of wanted streams adjacent
// to the header then extends the same buffer, and every further run of
// adjacent wanted streams is one read.
func (r *FileReader) fetchStripe(off, length int64, cols []int) (stripeSource, error) {
	nCols := firstSparse + len(r.keys)
	buf, err := r.get(off, min(length, int64(2+2*nCols)))
	if err != nil {
		return stripeSource{}, err
	}
	// extend grows buf to cover the stripe's first `to` bytes.
	extend := func(to int64) error {
		to = min(to, length)
		if to <= int64(len(buf)) {
			return fmt.Errorf("dwrf: stripe truncated at byte %d", length)
		}
		more, err := r.get(off+int64(len(buf)), to-int64(len(buf)))
		buf = append(buf[:len(buf):len(buf)], more...) // never write into the store's slice
		return err
	}
	var h stripeHeader
	for {
		var missing int
		if h, missing, err = parseStripeHeader(buf, nCols); err != nil {
			return stripeSource{}, err
		}
		if missing == 0 {
			break
		}
		to := int64(len(buf) + missing)
		if missing <= 2*(nCols-firstSparse) { // the meta and dense lengths are parsed
			to += int64(h.compLen[metaStream] + h.compLen[denseStream])
		}
		if err := extend(to); err != nil {
			return stripeSource{}, err
		}
	}

	start := make([]int64, nCols+1) // stream c occupies [start[c], start[c+1]) of the stripe
	start[0] = int64(h.size)
	for c, n := range h.compLen {
		start[c+1] = start[c] + int64(n)
	}
	wanted := make([]int, 0, firstSparse+len(cols))
	wanted = append(wanted, metaStream, denseStream)
	for _, col := range cols {
		wanted = append(wanted, firstSparse+col)
	}
	sort.Ints(wanted)

	src := stripeSource{stripeHeader: h, comp: make([][]byte, nCols)}
	for i := 0; i < len(wanted); {
		j := i + 1
		for j < len(wanted) && wanted[j] == wanted[j-1]+1 {
			j++
		}
		lo, hi := start[wanted[i]], start[wanted[j-1]+1]
		run, base := buf, int64(0)
		switch {
		case hi > length:
			return stripeSource{}, fmt.Errorf("dwrf: column %d stream truncated", wanted[j-1])
		case i > 0:
			if run, err = r.get(off+lo, hi-lo); err != nil {
				return stripeSource{}, err
			}
			base = lo
		case hi > int64(len(buf)): // the run that follows the header
			if err := extend(hi); err != nil {
				return stripeSource{}, err
			}
			run = buf
		}
		for _, c := range wanted[i:j] {
			src.comp[c] = run[start[c]-base : start[c+1]-base : start[c+1]-base]
		}
		i = j
	}
	return src, nil
}

// maxInflateRatio is deflate's expansion limit (a 258-byte match costs at
// least two bits); a recorded raw length beyond it is forged, and is
// refused before it sizes a buffer.
const maxInflateRatio = 1032

// inflate decompresses column c of src into *scratch (grown as needed)
// and returns the raw stream.
func (src *stripeSource) inflate(c int, scratch *[]byte) ([]byte, error) {
	if int64(src.rawLen[c]) > maxInflateRatio*int64(len(src.comp[c])) {
		return nil, fmt.Errorf("dwrf: column %d: raw length %d impossible for %d compressed bytes", c, src.rawLen[c], len(src.comp[c]))
	}
	raw, err := decompressStream(*scratch, src.comp[c], src.rawLen[c])
	if err != nil {
		return nil, fmt.Errorf("dwrf: column %d: %w", c, err)
	}
	*scratch = raw
	return raw, nil
}

// decodeStripe is the stripe decoder: it inflates the meta stream, the
// dense stream and the streams of the sparse columns cols — no others —
// and decodes them straight into a column chunk. Allocations are a few
// per decoded column, whatever the row count.
func decodeStripe(src stripeSource, keys []string, dense int, cols []int) (*Chunk, error) {
	if dense < 0 || dense > maxDense {
		return nil, fmt.Errorf("dwrf: implausible dense width %d", dense)
	}
	bp := streamBufPool.Get().(*[]byte)
	defer streamBufPool.Put(bp)

	rows := src.rows
	c := &Chunk{keys: keys, cols: cols, width: dense, hi: rows, sparse: make([]tensor.Jagged, len(cols))}

	// Metadata: session ID and timestamp delta-encoded. A row is at least
	// five bytes, which bounds rows by real data before anything is sized
	// by it.
	raw, err := src.inflate(metaStream, bp)
	if err != nil {
		return nil, err
	}
	if len(raw)/5 < rows {
		return nil, fmt.Errorf("dwrf: metadata row %d truncated", len(raw)/5)
	}
	c.session, c.user = make([]int64, rows), make([]int64, rows)
	c.request, c.ts = make([]int64, rows), make([]int64, rows)
	c.labels = make([]int8, rows)
	mr := &byteReader{buf: raw}
	var prevSession, prevTS int64
	for i := 0; i < rows; i++ {
		ds, err1 := mr.varint()
		uid, err2 := mr.varint()
		rid, err3 := mr.varint()
		dts, err4 := mr.varint()
		lb, err5 := mr.ReadByte()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			return nil, fmt.Errorf("dwrf: metadata row %d truncated", i)
		}
		prevSession += ds
		prevTS += dts
		c.session[i], c.user[i], c.request[i], c.ts[i] = prevSession, uid, rid, prevTS
		c.labels[i] = int8(lb)
	}

	// Dense floats, raw little-endian.
	if raw, err = src.inflate(denseStream, bp); err != nil {
		return nil, err
	}
	if n := rows * dense; len(raw)/4 < n {
		return nil, fmt.Errorf("dwrf: dense row %d truncated", len(raw)/4/max(dense, 1))
	}
	c.dense = make([]float32, rows*dense)
	for i := range c.dense {
		c.dense[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}

	// Sparse columns: per row a varint length, then zigzag varint IDs.
	for p, col := range cols {
		if raw, err = src.inflate(firstSparse+col, bp); err != nil {
			return nil, err
		}
		// Every varint ends in one byte without the continuation bit, so
		// that count less the row lengths is the column's value count.
		nValues := -rows
		for _, b := range raw {
			if b < 0x80 {
				nValues++
			}
		}
		if nValues < 0 {
			return nil, fmt.Errorf("dwrf: sparse %q row %d length truncated", keys[col], rows+nValues)
		}
		if nValues > math.MaxInt32 {
			return nil, fmt.Errorf("dwrf: sparse %q holds %d values", keys[col], nValues)
		}
		j := tensor.Jagged{Values: make([]tensor.Value, nValues), Offsets: make([]int32, rows)}
		sr := &byteReader{buf: raw}
		filled := 0
		for i := 0; i < rows; i++ {
			n, err := sr.uvarint()
			if err != nil {
				return nil, fmt.Errorf("dwrf: sparse %q row %d length truncated", keys[col], i)
			}
			if n > uint64(nValues-filled) {
				return nil, fmt.Errorf("dwrf: sparse %q row %d list too long (%d)", keys[col], i, n)
			}
			j.Offsets[i] = int32(filled)
			for end := filled + int(n); filled < end; filled++ {
				if j.Values[filled], err = sr.varint(); err != nil {
					return nil, fmt.Errorf("dwrf: sparse %q row %d value truncated", keys[col], i)
				}
			}
		}
		j.Values = j.Values[:filled]
		c.sparse[p] = j
	}
	return c, nil
}
