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
// column stream's length in the file. size is the header's own encoded
// length, which is where the first stream starts.
type stripeHeader struct {
	rows   int
	length []int
	size   int
}

// headerVarints is how many varints the header of a stripe of nCols
// column streams holds: the row and column counts, then one length for
// each stream (see flushStripe).
func headerVarints(nCols int) int { return 2 + nCols }

// parseStripeHeader decodes the header at the front of buf for a file of
// nCols column streams. A buf that ends inside the header is not an
// error: missing then reports how many of the header's varints are still
// incomplete (each needs at least one more byte), and the lengths parsed
// so far are valid. missing == 0 means the header is complete.
func parseStripeHeader(buf []byte, nCols int) (h stripeHeader, missing int, err error) {
	h.length = make([]int, nCols)
	r := &byteReader{buf: buf}
	total := headerVarints(nCols)
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
			return h, 0, fmt.Errorf("dwrf: column %d stream too large", i-2)
		default:
			h.length[i-2] = int(v)
		}
	}
	h.size = r.pos
	return h, 0, nil
}

// stripeSource is what decoding needs of one stripe: its header and the
// stored stream of every column to be decoded. Streams of columns outside
// the projection stay nil — they were never fetched.
type stripeSource struct {
	stripeHeader
	streams [][]byte
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
	src := stripeSource{stripeHeader: h, streams: make([][]byte, nCols)}
	pos := h.size
	for c, n := range h.length {
		if n > len(stripe)-pos {
			return stripeSource{}, fmt.Errorf("dwrf: column %d stream truncated", c)
		}
		src.streams[c] = stripe[pos : pos+n : pos+n]
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
	buf, err := r.get(off, min(length, int64(headerVarints(nCols))))
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
		if missing <= nCols-firstSparse { // the label and dense lengths are parsed
			to += int64(h.length[labelStream] + h.length[denseStream])
		}
		if err := extend(to); err != nil {
			return stripeSource{}, err
		}
	}

	start := make([]int64, nCols+1) // stream c occupies [start[c], start[c+1]) of the stripe
	start[0] = int64(h.size)
	for c, n := range h.length {
		start[c+1] = start[c] + int64(n)
	}
	wanted := make([]int, 0, firstSparse+len(cols))
	wanted = append(wanted, labelStream, denseStream)
	for _, col := range cols {
		wanted = append(wanted, firstSparse+col)
	}
	sort.Ints(wanted)

	src := stripeSource{stripeHeader: h, streams: make([][]byte, nCols)}
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
			src.streams[c] = run[start[c]-base : start[c+1]-base : start[c+1]-base]
		}
		i = j
	}
	return src, nil
}

// maxInflateRatio is the most values, or rows, a sparse stream may
// expand to per stored byte: a reference costs a byte or two whatever it
// copies, so the bound is the grammar's, checked as the decoder sizes the
// column, and the encoder writes a column that would pass it literally.
const maxInflateRatio = 1032

// decodeStripe is the stripe decoder: it reads the label stream, the
// dense stream and the streams of the sparse columns cols — no others —
// where they were fetched, and decodes them straight into a column chunk.
// Allocations are a few per decoded column, whatever the row count. The
// label and dense streams must be exactly their rows' length, which bounds
// rows by real bytes before anything is sized by it; a sparse stream's
// width, base and row headers are checked in a first pass that sizes the
// column, before anything is allocated by what they claim (see
// decodeSparse).
func decodeStripe(src stripeSource, keys []string, dense int, cols []int) (*Chunk, error) {
	if dense < 0 || dense > maxDense {
		return nil, fmt.Errorf("dwrf: implausible dense width %d", dense)
	}
	rows := src.rows
	labels, floats := src.streams[labelStream], src.streams[denseStream]
	if len(labels) != rows {
		return nil, fmt.Errorf("dwrf: label stream of %d bytes for %d rows", len(labels), rows)
	}
	if int64(len(floats)) != 4*int64(rows)*int64(dense) {
		return nil, fmt.Errorf("dwrf: dense stream of %d bytes for %d rows of %d floats", len(floats), rows, dense)
	}

	c := &Chunk{keys: keys, cols: cols, width: dense, hi: rows, sparse: make([]tensor.Jagged, len(cols))}
	c.labels = make([]int8, rows)
	for i, lb := range labels {
		c.labels[i] = int8(lb)
	}
	c.dense = make([]float32, rows*dense)
	for i := range c.dense {
		c.dense[i] = math.Float32frombits(binary.LittleEndian.Uint32(floats[4*i:]))
	}

	// Sparse columns: a WidthCodec header, then row headers, each naming a
	// literal, a run of repeats, a shift or a back-reference
	// (byteReader.row), and each followed by its row's literal IDs.
	for p, col := range cols {
		var err error
		if c.sparse[p], err = decodeSparse(src.streams[firstSparse+col], rows); err != nil {
			return nil, fmt.Errorf("dwrf: sparse %q %w", keys[col], err)
		}
	}
	return c, nil
}

// decodeSparse decodes one sparse stream of a stripe of the given rows
// (see appendSparse for its grammar) in two passes over its bytes. It
// refuses more rows than maxInflateRatio a stored byte before it sizes
// their offsets. The first pass walks the row headers and sets each row's
// offset: a literal's length is its header's, a reference's the
// referenced row's less its drop, plus its tail. It refuses a run past the
// stripe's last row, a reference to a row before the stripe's first or of
// distance below 2 (other than the previous row's shift and run), a drop
// longer than the referenced row, literal IDs at width 0 or whose w bytes
// each run past the stream, values beyond maxInflateRatio a stored byte,
// and a stream that does not end with its last row. Only then are the
// values sized, and the second pass copies each reference out of the rows
// already decoded and reads each literal ID.
func decodeSparse(raw []byte, rows int) (tensor.Jagged, error) {
	sr := byteReader{buf: raw}
	ids, err := sr.widthCodec()
	if err != nil {
		return tensor.Jagged{}, err
	}
	width := uint64(ids.Width)
	body := sr.pos
	limit := int(min(maxInflateRatio*int64(len(raw)), math.MaxInt32))
	if rows > limit { // a run states many rows a byte: they are bounded as values are
		return tensor.Jagged{}, fmt.Errorf("cannot state %d rows in %d bytes", rows, len(raw))
	}
	j := tensor.Jagged{Offsets: make([]int32, rows)}
	nValues := 0
	for i := 0; i < rows; {
		count, dist, drop, tail, err := sr.row()
		if err != nil {
			return tensor.Jagged{}, fmt.Errorf("row %d header: %w", i, err)
		}
		if count > uint64(rows-i) {
			return tensor.Jagged{}, fmt.Errorf("row %d repeats the row before it past the stripe's last row", i)
		}
		for end := i + int(count); i < end; i++ {
			j.Offsets[i] = int32(nValues)
			n := uint64(0) // the IDs the row copies
			if dist > uint64(i) {
				err = fmt.Errorf("refers %d rows back, before the stripe's first", dist)
			} else if dist > 0 {
				ref := i - int(dist)
				if n = uint64(j.Offsets[ref+1] - j.Offsets[ref]); drop > n {
					err = fmt.Errorf("drops %d IDs of a row of %d", drop, n)
				} else {
					n -= drop
				}
			}
			switch {
			case err != nil:
			case tail > 0 && width == 0:
				err = errors.New("holds IDs in a stream of width 0")
			case tail > uint64(sr.remaining()) || tail*width > uint64(sr.remaining()):
				err = fmt.Errorf("list too long (%d IDs of %d bytes)", tail, width)
			}
			if err != nil {
				return tensor.Jagged{}, fmt.Errorf("row %d %w", i, err)
			}
			sr.pos += int(tail * width)
			if nValues += int(n + tail); nValues > limit {
				return tensor.Jagged{}, fmt.Errorf("expands to more than %d values", limit)
			}
		}
	}
	if sr.remaining() > 0 {
		return tensor.Jagged{}, fmt.Errorf("stream has %d bytes past its last row", sr.remaining())
	}

	j.Values = make([]tensor.Value, nValues)
	sr.pos = body
	filled := 0
	for i := 0; i < rows; {
		count, dist, drop, tail, _ := sr.row() // the first pass read every header
		for end := i + int(count); i < end; i++ {
			if dist > 0 {
				ref := i - int(dist)
				filled += copy(j.Values[filled:], j.Values[j.Offsets[ref]+int32(drop):j.Offsets[ref+1]])
			}
			for last := filled + int(tail); filled < last; filled++ {
				j.Values[filled] = ids.At(raw[sr.pos:])
				sr.pos += int(width)
			}
		}
	}
	return j, nil
}
