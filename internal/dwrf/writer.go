package dwrf

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/datagen"
	"repro/internal/tensor"
)

// FileWriter writes samples into a DWRF file held in memory. Rows are
// buffered until a stripe fills, then encoded column-by-column. Call
// Finish to obtain the file bytes and stats.
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

	// The flushed stripes, each in memory of its own size, and the bytes
	// of the file they and the magic make so far.
	body [][]byte
	size int64

	// The encode scratch, taken from writerScratches and handed back at
	// Finish.
	*writerScratch
	pending []datagen.Sample
	stripes []stripeInfo

	rows    int
	colRaw  []int64
	colComp []int64

	// Every written row's keys: session, user, timestamp, request.
	rowKeys [][4]int64

	hdr []byte // the stripe header's scratch

	// literal writes every sparse row as a literal; tests set it to size
	// what references buy.
	literal bool

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
	w.writerScratch = writerScratches.Get().(*writerScratch)
	w.size = int64(len(magic))
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
	w.rowKeys = append(w.rowKeys, [4]int64{s.SessionID, s.UserID, s.Timestamp, s.RequestID})
	w.rows++
	if len(w.pending) >= w.opts.StripeRows {
		w.flushStripe()
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
	w.streams = slices.Grow(w.streams[:0], firstSparse+len(w.schema.Sparse))[:firstSparse+len(w.schema.Sparse)]
	streams := w.streams

	// Column 0: one label byte per row. The row keys go to the file's
	// row-key section (see Finish).
	labels := streams[labelStream][:0]
	for _, s := range w.pending {
		labels = append(labels, byte(s.Label))
	}
	streams[labelStream] = labels

	// Column 1: dense floats, raw little-endian.
	dense := streams[denseStream][:0]
	for _, s := range w.pending {
		for _, f := range s.Dense {
			dense = putFloat32(dense, f)
		}
	}
	streams[denseStream] = dense
	w.colRaw[labelStream] += int64(len(labels))
	w.colRaw[denseStream] += int64(len(dense))

	// Sparse columns: one stream per feature, rows stated by reference.
	for fi := range w.schema.Sparse {
		col, values, plain := w.appendSparse(streams[firstSparse+fi][:0], fi, !w.literal)
		if int64(max(values, len(w.pending))) > maxInflateRatio*int64(len(col)) {
			// A reader believes no more than maxInflateRatio values, or
			// rows, a stored byte, so a column whose references expand
			// past that is written literally, at a byte or more a row
			// and an ID.
			col, _, _ = w.appendSparse(col[:0], fi, false)
		}
		streams[firstSparse+fi] = col
		w.colRaw[firstSparse+fi] += int64(plain)
	}
	return streams
}

// appendSparse appends sparse feature fi of the pending rows to col as one
// sparse stream, and returns it with the column's value count and its
// plain size: a varint length and the zigzag varint IDs for every row, the
// encoding before references and widths, which ColumnStats.RawBytes
// reports.
//
// The stream opens with the header of its IDs' tensor.WidthCodec: a width byte w
// and, if any row holds an ID, the zigzag varint base, the least ID. Each
// row is then one uvarint header h, whose low two bits say what the row
// is:
//
//	h&3 == 0: a run: the previous row again, and again for each of the
//	          next h>>2 rows (h == 0: this row alone)
//	h&3 == 1: a literal of h>>2 IDs
//	h&3 == 2: a shift: the previous row less its first h>>2 IDs, then
//	          uvarint t, a tail of t IDs
//	h&3 == 3: a back-reference to the row d = h>>3 (at least 2) rows
//	          back: that row whole if h&4 is set, else followed by
//	          uvarint k and uvarint t — that row less its first k IDs,
//	          then a tail of t IDs
//
// followed by the row's literal IDs — a literal's list, a shift's or a
// back-reference's tail — each its offset over the base in w
// little-endian bytes (WidthCodec). A row refers only to rows of its own
// stripe, so a stripe decodes alone.
//
// With refer, a row is stated by reference when that is no dearer than
// its literal: the candidate is the latest earlier row holding the row's
// first ID, from that ID on, if the rest of that row is a prefix of this
// one (see refTable); an exact repeat of the previous row joins a run.
// Without refer, every row is a literal.
func (w *FileWriter) appendSparse(col []byte, fi int, refer bool) (_ []byte, values, plain int) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range w.pending {
		lst := s.Sparse[fi]
		values += len(lst)
		plain += uvarintLen(uint64(len(lst)))
		for _, id := range lst {
			lo, hi = min(lo, id), max(hi, id)
			plain += uvarintLen(uint64(id<<1) ^ uint64(id>>63))
		}
	}
	ids := tensor.NewWidthCodec(lo, hi)
	col = ids.AppendHeader(col)
	width := ids.Width
	if refer {
		w.refs.reset(values)
	}
	run, runAt := 0, 0 // rows the last header repeats the row before them for, from byte runAt
	for i, s := range w.pending {
		lst := s.Sparse[fi]
		dist, drop, tail := 0, 0, len(lst) // a literal, unless a reference is no dearer
		switch {
		case !refer:
		case len(lst) == 0:
			if i > 0 && len(w.pending[i-1].Sparse[fi]) == 0 {
				dist = 1
			}
		default:
			if r, k, ok := w.refs.get(lst[0]); ok {
				if run > 0 && r == i-1-run { // the run's rows are its source again
					r = i - 1
				}
				ref := w.pending[r].Sparse[fi][k:]
				if m := len(ref); m <= len(lst) && slices.Equal(ref, lst[:m]) &&
					rowCost(i-r, k, len(lst)-m, width) <= rowCost(0, 0, len(lst), width) {
					dist, drop, tail = i-r, k, len(lst)-m
				}
			}
		}
		if dist == 1 && drop == 0 && tail == 0 { // the previous row again: start or extend a run
			if run == 0 {
				runAt = len(col)
			}
			run++
			col = putUvarint(col[:runAt], uint64(run-1)<<2)
			continue // the table holds the run's source, which the row equals
		}
		run = 0
		col = putRow(col, dist, drop, tail)
		if refer {
			for p := len(lst) - 1; p >= 0; p-- { // the first position wins
				w.refs.put(lst[p], i, p)
			}
		}
		for _, id := range lst[len(lst)-tail:] {
			col = ids.Append(col, id)
		}
	}
	return col, values, plain
}

// putRow appends the header of a sparse row other than a repeat (see
// appendSparse): a literal of tail IDs when dist is 0, else the row dist
// rows back less its first drop IDs, then a tail of tail IDs.
func putRow(col []byte, dist, drop, tail int) []byte {
	switch dist {
	case 0:
		return putUvarint(col, uint64(tail)<<2|1)
	case 1:
		return putUvarint(putUvarint(col, uint64(drop)<<2|2), uint64(tail))
	}
	if drop == 0 && tail == 0 {
		return putUvarint(col, uint64(dist)<<3|7)
	}
	return putUvarint(putUvarint(putUvarint(col, uint64(dist)<<3|3), uint64(drop)), uint64(tail))
}

// rowCost is the stored bytes of a row stated as putRow would state it,
// tail IDs included; a repeat costs its byte, or less in a run.
func rowCost(dist, drop, tail, width int) int {
	switch {
	case dist == 0:
		return uvarintLen(uint64(tail)<<2|1) + tail*width
	case dist == 1 && drop == 0 && tail == 0:
		return 1
	case dist == 1:
		return uvarintLen(uint64(drop)<<2|2) + uvarintLen(uint64(tail)) + tail*width
	case drop == 0 && tail == 0:
		return uvarintLen(uint64(dist)<<3 | 7)
	}
	return uvarintLen(uint64(dist)<<3|3) + uvarintLen(uint64(drop)) + uvarintLen(uint64(tail)) + tail*width
}

// refTable maps an ID to the latest row of a sparse stream that holds it,
// and the ID's first position in that row: where appendSparse looks for a
// row to refer to. It is direct-mapped, like an LZ77 match finder's hash
// table: an ID whose slot a later ID took is forgotten, which can cost a
// reference but never correctness, since every candidate is compared. A
// stamp ties each slot to the stream that wrote it, so one table serves
// every stream and stripe of a writer without being cleared or
// reallocated, and a stripe costs a few table writes an ID.
type refTable struct {
	slots []refSlot
	shift uint // 64 less log2(len(slots))
	stamp uint32
}

type refSlot struct {
	id       int64
	stamp    uint32
	row, pos int32
}

// writerScratch is what a writer encodes into: the column streams, the
// sparse encoder's reference table and the row-key section.
// WritePartition and a landing writer make one writer a file, so writers
// pass it on through writerScratches instead of each growing its own: the
// streams to the largest stripe's, the table to twice a stream's IDs, up
// to maxRefSlots — its stamps keep every slot a former writer left from
// passing for one of this writer's — and the section to the largest
// file's. The file itself is never pooled: a pooled buffer the size of
// a file is heap every process that writes files keeps, and twice that
// under the collector's pacing.
type writerScratch struct {
	streams [][]byte
	refs    refTable
	keys    []byte
}

var writerScratches = sync.Pool{New: func() any { return new(writerScratch) }}

// maxRefSlots caps a refTable, whatever the stream: a row's candidate is
// nearly always a recent row, whose IDs were the table's latest writes, so
// a larger table would buy a long stream few references for its memory.
const maxRefSlots = 1 << 14

// reset empties the table for a stream of n IDs, growing it to twice that
// many slots, up to maxRefSlots.
func (t *refTable) reset(n int) {
	if want := min(2*n, maxRefSlots); len(t.slots) < want {
		size := 256
		for size < want {
			size <<= 1
		}
		t.slots, t.shift, t.stamp = make([]refSlot, size), uint(64-bits.TrailingZeros(uint(size))), 0
	}
	if t.stamp++; t.stamp == 0 { // wrapped: no old stamp may pass for new
		clear(t.slots)
		t.stamp = 1
	}
}

func (t *refTable) slot(id int64) *refSlot {
	return &t.slots[uint64(id)*0x9e3779b97f4a7c15>>t.shift] // Fibonacci hashing
}

func (t *refTable) get(id int64) (row, pos int, ok bool) {
	s := t.slot(id)
	return int(s.row), int(s.pos), s.stamp == t.stamp && s.id == id
}

func (t *refTable) put(id int64, row, pos int) {
	*t.slot(id) = refSlot{id: id, stamp: t.stamp, row: int32(row), pos: int32(pos)}
}

// flushStripe encodes the pending rows and appends them as one stripe.
// Stripe wire format:
//
//	uvarint rowCount
//	uvarint columnCount
//	columnCount × uvarint len
//	columnCount × stream bytes
//
// Every stream is stored as written, and its one length is its length in
// the file. The label stream holds one byte per row, the dense stream
// rows × dense little-endian float32s, and a sparse stream its IDs'
// header and its rows (see appendSparse).
func (w *FileWriter) flushStripe() {
	if len(w.pending) == 0 {
		return
	}
	streams := w.encodeStripeColumns()

	hdr := w.hdr[:0]
	hdr = putUvarint(hdr, uint64(len(w.pending)))
	hdr = putUvarint(hdr, uint64(len(streams)))
	size := 0
	for i, stream := range streams {
		hdr = putUvarint(hdr, uint64(len(stream)))
		w.colComp[i] += int64(len(stream))
		size += len(stream)
	}
	w.hdr = hdr
	stripe := append(make([]byte, 0, size+len(hdr)), hdr...)
	for _, stream := range streams {
		stripe = append(stripe, stream...)
	}
	w.body = append(w.body, stripe)

	w.stripes = append(w.stripes, stripeInfo{
		offset: w.size,
		length: int64(len(stripe)),
		rows:   len(w.pending),
	})
	w.size += int64(len(stripe))
	w.pending = w.pending[:0]
}

// Finish flushes the last stripe, writes the row-key section and the
// footer, and returns the file bytes and stats. The writer must not be
// used afterwards.
//
// The row-key section runs from the end of the last stripe (or the magic)
// to the footer, stored as written: every row's session, then every row's
// user, then every row's timestamp, each a zigzag varint delta of the row
// before — clustered rows repeat the first two and step the third — then
// every row's request ID, in one tensor.WidthCodec run. Footer wire format:
//
//	uvarint stripeCount
//	stripeCount × { uvarint offset, uvarint length, uvarint rows }
//	uvarint sparseFeatureCount
//	sparseFeatureCount × { uvarint keyLen, key bytes }
//	uvarint denseCount
//	fixed32 footerLen | trailerMagic
func (w *FileWriter) Finish() ([]byte, FileStats, error) {
	if w.finished {
		return nil, FileStats{}, fmt.Errorf("dwrf: Finish called twice")
	}
	w.flushStripe()
	w.finished = true

	section := w.keys[:0]
	for f := range 3 { // session, user, timestamp
		var prev int64
		for _, k := range w.rowKeys {
			section = putVarint(section, k[f]-prev)
			prev = k[f]
		}
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, k := range w.rowKeys {
		lo, hi = min(lo, k[3]), max(hi, k[3])
	}
	ids := tensor.NewWidthCodec(lo, hi)
	section = ids.AppendHeader(section)
	for _, k := range w.rowKeys {
		section = ids.Append(section, k[3])
	}
	w.keys = section
	w.colRaw[0] += int64(len(section))
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

	// The file is put together once, in memory of its own size.
	data := make([]byte, 0, int(w.size)+len(section)+len(footer)+len(trailerMagic)+4)
	data = append(data, magic...)
	for _, stripe := range w.body {
		data = append(data, stripe...)
	}
	data = append(append(data, section...), footer...)
	data = append(binary.LittleEndian.AppendUint32(data, uint32(len(footer))), trailerMagic...)
	writerScratches.Put(w.writerScratch)
	w.writerScratch, w.body = nil, nil
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
