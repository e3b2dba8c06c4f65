package dwrf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"

	"repro/internal/datagen"
)

// FileWriter writes samples into a DWRF file held in memory. Rows are
// buffered until a stripe fills, then encoded column-by-column and
// compressed. Call Finish to obtain the file bytes and stats.
//
// Column layout: column 0 is row metadata (session/user/request IDs,
// timestamp, label), column 1 is the dense feature vector, and columns
// 2..2+F-1 are the flattened sparse feature columns, one per schema
// feature — matching the paper's "feature columns are first flattened"
// (§2.1).
type FileWriter struct {
	schema *datagen.Schema
	opts   WriterOptions

	buf     bytes.Buffer
	pending []datagen.Sample
	stripes []stripeInfo

	rows    int
	colRaw  []int64
	colComp []int64

	// Per-stripe encode/compress scratch, reset (not reallocated) between
	// stripes: raw column streams, compressed column streams, the shared
	// flate writer, its output buffer, and the stripe header.
	streams [][]byte
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
	w.rows++
	if len(w.pending) >= w.opts.StripeRows {
		return w.flushStripe()
	}
	return nil
}

// WriteRows appends a batch of samples.
func (w *FileWriter) WriteRows(samples []datagen.Sample) error {
	for _, s := range samples {
		if err := w.WriteRow(s); err != nil {
			return err
		}
	}
	return nil
}

// encodeStripeColumns encodes the pending rows into one raw byte stream
// per column. Streams are built in the writer's reusable scratch buffers,
// so steady-state stripe encoding allocates nothing.
func (w *FileWriter) encodeStripeColumns() [][]byte {
	nCols := 2 + len(w.schema.Sparse)
	if w.streams == nil {
		w.streams = make([][]byte, nCols)
	}
	streams := w.streams

	// Column 0: metadata. Session IDs and timestamps are delta-encoded —
	// clustered tables have long runs of equal session IDs and ascending
	// timestamps, which delta+varint shrinks dramatically even before
	// flate sees the stream.
	meta := streams[0][:0]
	var prevSession, prevTS int64
	for _, s := range w.pending {
		meta = putVarint(meta, s.SessionID-prevSession)
		prevSession = s.SessionID
		meta = putVarint(meta, s.UserID)
		meta = putVarint(meta, s.RequestID)
		meta = putVarint(meta, s.Timestamp-prevTS)
		prevTS = s.Timestamp
		meta = append(meta, byte(s.Label))
	}
	streams[0] = meta

	// Column 1: dense floats, raw little-endian.
	dense := streams[1][:0]
	for _, s := range w.pending {
		for _, f := range s.Dense {
			dense = putFloat32(dense, f)
		}
	}
	streams[1] = dense

	// Sparse columns: per row a varint length then zigzag varint IDs.
	for fi := range w.schema.Sparse {
		col := streams[2+fi][:0]
		for _, s := range w.pending {
			lst := s.Sparse[fi]
			col = putUvarint(col, uint64(len(lst)))
			for _, id := range lst {
				col = putVarint(col, id)
			}
		}
		streams[2+fi] = col
	}
	return streams
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
		comp[i] = c
		w.colRaw[i] += int64(len(raw))
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

// Finish flushes the last stripe, writes the footer, and returns the file
// bytes and stats. The writer must not be used afterwards.
//
// Footer wire format (uncompressed):
//
//	uvarint stripeCount
//	stripeCount × { uvarint offset, uvarint length, uvarint rows }
//	uvarint sparseFeatureCount
//	sparseFeatureCount × { uvarint keyLen, key bytes }
//	uvarint denseCount
//	fixed32 footerLen | magic
func (w *FileWriter) Finish() ([]byte, FileStats, error) {
	if w.finished {
		return nil, FileStats{}, fmt.Errorf("dwrf: Finish called twice")
	}
	if err := w.flushStripe(); err != nil {
		return nil, FileStats{}, err
	}
	w.finished = true

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

	w.buf.Write(footer)
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(footer)))
	copy(tail[4:], magic)
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
