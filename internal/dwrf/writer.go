package dwrf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/datagen"
)

// FileWriter writes samples into a DWRF file held in memory. Rows are
// buffered until a stripe fills, then encoded column-by-column and
// compressed. Call Finish to obtain the file bytes and stats.
//
// Column layout: column 0 is the labels, column 1 is the dense feature
// vector, and columns 2..2+F-1 are the flattened sparse feature columns,
// one per schema feature — matching the paper's "feature columns are first
// flattened" (§2.1). The row keys (session/user/request IDs, timestamp)
// are no stripe's column: a batch does not carry them, so they are
// gathered over the whole file into one row-key section written after the
// last stripe, which only a whole-file row read fetches.
type FileWriter struct {
	schema *datagen.Schema
	opts   WriterOptions

	buf     bytes.Buffer
	pending []datagen.Sample
	stripes []stripeInfo

	rows    int
	colRaw  []int64
	colComp []int64

	// Every written row's keys: session, user, request, timestamp.
	rowKeys [][4]int64

	// Per-stripe encode/compress scratch, reset (not reallocated) between
	// stripes: raw column streams, their value counts, compressed column
	// streams, the shared flate writer, its output buffer, and the stripe
	// header.
	streams [][]byte
	values  []int
	comp    [][]byte
	fw      *flate.Writer
	compBuf bytes.Buffer
	hdr     []byte

	finished bool
}

// NewFileWriter creates a writer for the given schema.
func NewFileWriter(schema *datagen.Schema, opts WriterOptions) (*FileWriter, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if schema == nil {
		return nil, fmt.Errorf("dwrf: nil schema")
	}
	w := &FileWriter{
		schema:  schema,
		opts:    opts,
		colRaw:  make([]int64, 2+len(schema.Sparse)),
		colComp: make([]int64, 2+len(schema.Sparse)),
	}
	w.buf.WriteString(magic)
	return w, nil
}

// WriteRow appends one sample. The sample must conform to the schema.
func (w *FileWriter) WriteRow(s datagen.Sample) error {
	if w.finished {
		return fmt.Errorf("dwrf: write after Finish")
	}
	if len(s.Sparse) != len(w.schema.Sparse) {
		return fmt.Errorf("dwrf: sample has %d sparse features, schema has %d", len(s.Sparse), len(w.schema.Sparse))
	}
	if len(s.Dense) != w.schema.Dense {
		return fmt.Errorf("dwrf: sample has %d dense features, schema has %d", len(s.Dense), w.schema.Dense)
	}
	w.pending = append(w.pending, s)
	w.rowKeys = append(w.rowKeys, [4]int64{s.SessionID, s.UserID, s.RequestID, s.Timestamp})
	w.rows++
	if len(w.pending) >= w.opts.StripeRows {
		return w.flushStripe()
	}
	return nil
}

// WriteRows appends a batch of samples.
func (w *FileWriter) WriteRows(samples []datagen.Sample) error {
	w.rowKeys = slices.Grow(w.rowKeys, len(samples))
	for _, s := range samples {
		if err := w.WriteRow(s); err != nil {
			return err
		}
	}
	return nil
}

// encodeStripeColumns encodes the pending rows into one raw byte stream
// per column, and adds each column's plain size to colRaw. Streams are
// built in the writer's reusable scratch buffers, so steady-state stripe
// encoding allocates nothing.
func (w *FileWriter) encodeStripeColumns() [][]byte {
	nCols := 2 + len(w.schema.Sparse)
	if w.streams == nil {
		w.streams, w.values = make([][]byte, nCols), make([]int, nCols)
	}
	streams := w.streams

	// Column 0: one label byte per row. The row keys go to the file's
	// row-key section (see Finish).
	labels := streams[0][:0]
	for _, s := range w.pending {
		labels = append(labels, byte(s.Label))
	}
	streams[0] = labels

	// Column 1: dense floats, raw little-endian.
	dense := streams[1][:0]
	for _, s := range w.pending {
		for _, f := range s.Dense {
			dense = putFloat32(dense, f)
		}
	}
	streams[1] = dense
	w.colRaw[0] += int64(len(labels))
	w.colRaw[1] += int64(len(dense))

	// Sparse columns: one stream per feature, runs written once.
	for fi := range w.schema.Sparse {
		var plain int
		streams[2+fi], w.values[2+fi], plain = w.appendSparse(streams[2+fi][:0], fi, true)
		w.colRaw[2+fi] += int64(plain)
	}
	return streams
}

// appendSparse appends sparse feature fi of the pending rows to col as one
// sparse stream: a width byte w and, if any row holds an ID, the zigzag
// varint base, the least ID; then per row uvarint len+1 and the IDs, each
// uint64(id)-uint64(base) in w little-endian bytes — or, with runs, a
// single uvarint 0 for a list equal to the row before's. w is the fewest
// bytes that hold the greatest ID's offset, and at least 1 when the stream
// holds an ID, so an ID never costs less than a raw byte; it is 0 only when
// the stream holds none. Row 0 is always literal, so a stripe decodes
// alone. It also returns the column's value count and its plain size: a
// varint length and the zigzag varint IDs for every row, the encoding
// before runs and widths, which ColumnStats.RawBytes keeps reporting.
func (w *FileWriter) appendSparse(col []byte, fi int, runs bool) (_ []byte, values, plain int) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range w.pending {
		for _, id := range s.Sparse[fi] {
			lo, hi = min(lo, id), max(hi, id)
		}
	}
	width := 0
	if lo <= hi { // the stream holds an ID
		width = max(1, (bits.Len64(uint64(hi)-uint64(lo))+7)/8)
	}
	col = append(col, byte(width))
	if width > 0 {
		col = putVarint(col, lo)
	}
	var prev []int64
	rowPlain := 0
	for r, s := range w.pending {
		lst := s.Sparse[fi]
		values += len(lst)
		if runs && r > 0 && slices.Equal(lst, prev) {
			col = append(col, 0)
		} else {
			col = putUvarint(col, uint64(len(lst))+1)
			rowPlain = uvarintLen(uint64(len(lst)))
			for _, id := range lst {
				n := len(col)
				col = binary.LittleEndian.AppendUint64(col, uint64(id)-uint64(lo))[:n+width]
				rowPlain += uvarintLen(uint64(id<<1) ^ uint64(id>>63))
			}
		}
		plain += rowPlain
		prev = lst
	}
	return col, values, plain
}

// compressInto flate-compresses raw into dst's storage using the writer's
// reused flate state, returning the (possibly regrown) compressed slice.
func (w *FileWriter) compressInto(dst, raw []byte) ([]byte, error) {
	w.compBuf.Reset()
	if w.fw == nil {
		fw, err := flate.NewWriter(&w.compBuf, flate.DefaultCompression)
		if err != nil {
			return nil, fmt.Errorf("dwrf: flate init: %w", err)
		}
		w.fw = fw
	} else {
		w.fw.Reset(&w.compBuf)
	}
	if _, err := w.fw.Write(raw); err != nil {
		return nil, fmt.Errorf("dwrf: compress: %w", err)
	}
	if err := w.fw.Close(); err != nil {
		return nil, fmt.Errorf("dwrf: compress close: %w", err)
	}
	return append(dst[:0], w.compBuf.Bytes()...), nil
}

// flushStripe encodes, compresses, and appends the pending rows as one
// stripe. Stripe wire format:
//
//	uvarint rowCount
//	uvarint columnCount
//	columnCount × { uvarint rawLen, uvarint compLen }
//	columnCount × compressed stream bytes
//
// rawLen is a stream's length before compression. The label stream holds
// one byte per row. A sparse stream opens with its ID width w (one byte)
// and, when w > 0, its base (a zigzag varint), and then holds, per row,
// either uvarint 0 (the previous row's list again) or uvarint len+1
// followed by len IDs of w little-endian bytes each, over base (see
// appendSparse).
func (w *FileWriter) flushStripe() error {
	if len(w.pending) == 0 {
		return nil
	}
	streams := w.encodeStripeColumns()

	if w.comp == nil {
		w.comp = make([][]byte, len(streams))
	}
	comp := w.comp
	for i, raw := range streams {
		c, err := w.compressInto(comp[i], raw)
		if err != nil {
			return err
		}
		if i >= firstSparse && int64(w.values[i]) > maxInflateRatio*int64(len(c)) {
			// A reader refuses runs that expand past what deflate could
			// pack into c: such a column is written without them.
			streams[i], _, _ = w.appendSparse(raw[:0], i-firstSparse, false)
			if c, err = w.compressInto(c, streams[i]); err != nil {
				return err
			}
		}
		comp[i] = c
		w.colComp[i] += int64(len(c))
	}

	offset := int64(w.buf.Len())
	hdr := w.hdr[:0]
	hdr = putUvarint(hdr, uint64(len(w.pending)))
	hdr = putUvarint(hdr, uint64(len(streams)))
	for i := range streams {
		hdr = putUvarint(hdr, uint64(len(streams[i])))
		hdr = putUvarint(hdr, uint64(len(comp[i])))
	}
	w.buf.Write(hdr)
	w.hdr = hdr
	for _, c := range comp {
		w.buf.Write(c)
	}

	w.stripes = append(w.stripes, stripeInfo{
		offset: offset,
		length: int64(w.buf.Len()) - offset,
		rows:   len(w.pending),
	})
	w.pending = w.pending[:0]
	return nil
}

// Finish flushes the last stripe, writes the row-key section and the
// footer, and returns the file bytes and stats. The writer must not be
// used afterwards.
//
// The row-key section is one flate-compressed stream from the end of the
// last stripe (or the magic) to the footer: every row's zigzag varint
// session delta, then every row's user ID, request ID and timestamp
// delta, field by field. Footer wire format (uncompressed):
//
//	uvarint stripeCount
//	stripeCount × { uvarint offset, uvarint length, uvarint rows }
//	uvarint sparseFeatureCount
//	sparseFeatureCount × { uvarint keyLen, key bytes }
//	uvarint denseCount
//	uvarint rowKeyRawLen
//	fixed32 footerLen | trailerMagic
func (w *FileWriter) Finish() ([]byte, FileStats, error) {
	if w.finished {
		return nil, FileStats{}, fmt.Errorf("dwrf: Finish called twice")
	}
	if err := w.flushStripe(); err != nil {
		return nil, FileStats{}, err
	}
	w.finished = true

	// Session IDs and timestamps are delta-encoded: clustered tables have
	// long runs of equal session IDs and ascending timestamps, which
	// delta+varint shrinks dramatically even before flate sees them.
	raw := make([]byte, 0, 4*binary.MaxVarintLen64*len(w.rowKeys))
	for f := 0; f < 4; f++ {
		var prev int64
		for _, k := range w.rowKeys {
			v := k[f]
			if f == 0 || f == 3 {
				v, prev = v-prev, v
			}
			raw = putVarint(raw, v)
		}
	}
	section, err := w.compressInto(nil, raw)
	if err != nil {
		return nil, FileStats{}, err
	}
	w.buf.Write(section)
	w.colRaw[0] += int64(len(raw))
	w.colComp[0] += int64(len(section))

	var footer []byte
	footer = putUvarint(footer, uint64(len(w.stripes)))
	for _, st := range w.stripes {
		footer = putUvarint(footer, uint64(st.offset))
		footer = putUvarint(footer, uint64(st.length))
		footer = putUvarint(footer, uint64(st.rows))
	}
	footer = putUvarint(footer, uint64(len(w.schema.Sparse)))
	for _, f := range w.schema.Sparse {
		footer = putUvarint(footer, uint64(len(f.Key)))
		footer = append(footer, f.Key...)
	}
	footer = putUvarint(footer, uint64(w.schema.Dense))
	footer = putUvarint(footer, uint64(len(raw)))

	w.buf.Write(footer)
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(footer)))
	copy(tail[4:], trailerMagic)
	w.buf.Write(tail[:])

	data := w.buf.Bytes()
	stats := FileStats{
		Rows:            w.rows,
		Stripes:         len(w.stripes),
		CompressedBytes: int64(len(data)),
	}
	names := w.columnNames()
	for i := range w.colRaw {
		stats.RawBytes += w.colRaw[i]
		stats.Columns = append(stats.Columns, ColumnStats{
			Name:            names[i],
			RawBytes:        w.colRaw[i],
			CompressedBytes: w.colComp[i],
		})
	}
	return data, stats, nil
}

func (w *FileWriter) columnNames() []string {
	names := make([]string, 0, 2+len(w.schema.Sparse))
	names = append(names, "_meta", "_dense")
	for _, f := range w.schema.Sparse {
		names = append(names, f.Key)
	}
	return names
}
