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
	labelStream = 0
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
// the lengths of the label and dense streams are known those streams —
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
		if missing <= 2*(nCols-firstSparse) { // the label and dense lengths are parsed
			to += int64(h.compLen[labelStream] + h.compLen[denseStream])
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
	wanted = append(wanted, labelStream, denseStream)
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

// decodeStripe is the stripe decoder: it inflates the label stream, the
// dense stream and the streams of the sparse columns cols — no others —
// and decodes them straight into a column chunk. Allocations are a few
// per decoded column, whatever the row count. A sparse stream's width,
// base and row headers are checked in a first pass that sizes the column,
// before anything is allocated by what they claim.
func decodeStripe(src stripeSource, keys []string, dense int, cols []int) (*Chunk, error) {
	if dense < 0 || dense > maxDense {
		return nil, fmt.Errorf("dwrf: implausible dense width %d", dense)
	}
	bp := streamBufPool.Get().(*[]byte)
	defer streamBufPool.Put(bp)

	rows := src.rows
	c := &Chunk{keys: keys, cols: cols, width: dense, hi: rows, sparse: make([]tensor.Jagged, len(cols))}

	// Labels: one byte a row, which bounds rows by real data before
	// anything is sized by it.
	if src.rawLen[labelStream] != rows {
		return nil, fmt.Errorf("dwrf: label stream of %d bytes for %d rows", src.rawLen[labelStream], rows)
	}
	raw, err := src.inflate(labelStream, bp)
	if err != nil {
		return nil, err
	}
	c.labels = make([]int8, rows)
	for i, lb := range raw {
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

	// Sparse columns: a width byte w and, if w > 0, a zigzag varint base;
	// then per row either uvarint 0, the previous row's list again, or
	// uvarint len+1 and then len IDs of w little-endian bytes over base.
	for p, col := range cols {
		if raw, err = src.inflate(firstSparse+col, bp); err != nil {
			return nil, err
		}
		if len(raw) == 0 || raw[0] > 8 {
			return nil, fmt.Errorf("dwrf: sparse %q has no ID width of 0 to 8 bytes", keys[col])
		}
		width := uint64(raw[0])
		sr := byteReader{buf: raw, pos: 1}
		var base int64
		if width > 0 {
			if base, err = sr.varint(); err != nil {
				return nil, fmt.Errorf("dwrf: sparse %q base truncated", keys[col])
			}
		}
		body := sr.pos
		// A first pass sizes the column: it walks the row headers, skips
		// each literal's w bytes an ID and counts a repeat at the previous
		// row's length. A literal ID takes at least a byte, and runs may
		// expand no further than deflate could pack a plain stream into the
		// same compressed bytes.
		limit := int(min(maxInflateRatio*int64(len(src.comp[firstSparse+col])), math.MaxInt32))
		nValues, n := 0, 0
		for i := 0; i < rows; i++ {
			h, err := sr.uvarint()
			switch {
			case err != nil:
				return nil, fmt.Errorf("dwrf: sparse %q row %d length truncated", keys[col], i)
			case h == 0 && i == 0:
				return nil, fmt.Errorf("dwrf: sparse %q repeats a row before its first", keys[col])
			case h == 0: // n is still the previous row's length
			case h > 1 && width == 0:
				return nil, fmt.Errorf("dwrf: sparse %q row %d holds IDs in a stream of width 0", keys[col], i)
			case h-1 > uint64(sr.remaining()) || (h-1)*width > uint64(sr.remaining()):
				return nil, fmt.Errorf("dwrf: sparse %q row %d list too long (%d)", keys[col], i, h-1)
			default:
				n = int(h - 1)
				sr.pos += n * int(width)
			}
			if nValues += n; nValues > limit {
				return nil, fmt.Errorf("dwrf: sparse %q expands to more than %d values", keys[col], limit)
			}
		}
		j := tensor.Jagged{Values: make([]tensor.Value, nValues), Offsets: make([]int32, rows)}
		mask := ^uint64(0) >> (64 - 8*width)
		sr.pos = body
		filled, prev := 0, 0 // the previous row's list is Values[prev:filled]
		for i := 0; i < rows; i++ {
			h, _ := sr.uvarint() // the first pass read every header
			start := filled
			j.Offsets[i] = int32(start)
			if h == 0 {
				filled += copy(j.Values[filled:], j.Values[prev:start])
			} else {
				for end := filled + int(h-1); filled < end; filled++ {
					var v uint64
					if sr.remaining() >= 8 {
						v = binary.LittleEndian.Uint64(raw[sr.pos:]) & mask
					} else {
						for b := sr.pos + int(width) - 1; b >= sr.pos; b-- {
							v = v<<8 | uint64(raw[b])
						}
					}
					j.Values[filled] = base + int64(v)
					sr.pos += int(width)
				}
			}
			prev = start
		}
		c.sparse[p] = j
	}
	return c, nil
}
