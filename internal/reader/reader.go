package reader

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dwrf"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Stats is the per-reader accounting the paper's reader experiments use:
// CPU time per stage (Fig 10's fill/convert/process breakdown), ingest
// bytes (Table 3 "Read Bytes"), egress bytes (Table 3 "Send Bytes"), and
// deterministic work counters that mirror the timed quantities.
type Stats struct {
	// Per-stage wall CPU time.
	FillTime    time.Duration
	ConvertTime time.Duration
	ProcessTime time.Duration

	// ReadBytes counts bytes fetched from the blob store (compressed):
	// the footer, stripe headers and column streams the spec's projection
	// reads, which is the whole file only when every column is consumed.
	ReadBytes int64
	// SentBytes counts preprocessed tensor bytes shipped to trainers.
	SentBytes int64

	// RowsDecoded counts samples decoded by fill.
	RowsDecoded int64
	// BatchesProduced counts emitted batches.
	BatchesProduced int64
	// ConvertValues counts feature values scanned during conversion,
	// including the hash pass over dedup-group values (the paper's
	// "additional compute at readers to detect duplicate values").
	ConvertValues int64
	// ProcessOps counts transform value-operations actually executed;
	// deduplicated preprocessing lowers this (O4).
	ProcessOps int64
}

// TotalTime is the summed CPU time across stages.
func (s Stats) TotalTime() time.Duration {
	return s.FillTime + s.ConvertTime + s.ProcessTime
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.FillTime += o.FillTime
	s.ConvertTime += o.ConvertTime
	s.ProcessTime += o.ProcessTime
	s.ReadBytes += o.ReadBytes
	s.SentBytes += o.SentBytes
	s.RowsDecoded += o.RowsDecoded
	s.BatchesProduced += o.BatchesProduced
	s.ConvertValues += o.ConvertValues
	s.ProcessOps += o.ProcessOps
}

// ThroughputSamplesPerSec converts stats into the paper's reader metric:
// samples preprocessed per second of reader CPU time.
func ThroughputSamplesPerSec(s Stats) float64 {
	if s.TotalTime() <= 0 {
		return 0
	}
	return float64(s.RowsDecoded) / s.TotalTime().Seconds()
}

// Reader is one stateless reader node executing the fill → convert →
// process pipeline over an assigned list of files.
type Reader struct {
	store storage.Backend
	spec  Spec
	stats Stats
	// consumed is spec.ConsumedFeatures(): the projection fill pushes down
	// to storage. Column p of every chunk fill decodes is consumed[p], so
	// convert addresses features by position: the plain KJT features
	// first, then each dedup group from groupAt[gi], then the partial
	// features from partialAt.
	consumed  []string
	groupAt   []int
	partialAt int
	// dedupers holds one reusable dedup table per spec dedup group; its
	// scratch amortizes across the whole scan.
	dedupers []*tensor.Deduper
}

// NewReader validates the spec and builds a reader over any storage
// backend (lakefs.Store in production, fakes in tests).
func NewReader(store storage.Backend, spec Spec) (*Reader, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &Reader{store: store, spec: spec, consumed: spec.ConsumedFeatures()}
	at := len(spec.SparseFeatures)
	for _, g := range spec.DedupSparseFeatures {
		r.groupAt = append(r.groupAt, at)
		r.dedupers = append(r.dedupers, tensor.NewDeduper())
		at += len(g)
	}
	r.partialAt = at
	return r, nil
}

// Stats returns the accumulated accounting.
func (r *Reader) Stats() Stats { return r.stats }

// ResetStats zeroes the accounting.
func (r *Reader) ResetStats() { r.stats = Stats{} }

// Run scans the assigned files in order, producing preprocessed batches.
// Rows left over after the last file that do not fill a batch are emitted
// as a final short batch. emit returning an error aborts the scan.
//
// Cancelling ctx aborts the scan promptly — between stripes, and before the
// next batch conversion — and Run returns ctx.Err().
//
// It is the cutter over units nobody has scanned: each file is scanned when
// the cutter reaches it, at the rows then in hand, on the caller's goroutine.
// This is the serial reference every other source is held to.
func (r *Reader) Run(ctx context.Context, files []string, emit func(*Batch) error) error {
	i := 0
	return r.RunUnits(ctx, func() (Unit, bool) {
		if i >= len(files) {
			return Unit{}, false
		}
		i++
		return Unit{File: files[i-1]}, true
	}, emit)
}

// Piece is one step of a file's contribution to a batch stream: rows only the
// cutter can place — the head or the tail of a file's scan — or a batch cut
// and converted already. Exactly one is set.
type Piece struct {
	Rows  *dwrf.Chunk
	Batch *Batch
}

// Unit is one file's contribution to a batch stream, the item every source
// hands the cutter (RunUnits) in file order: the file cut for a scan that
// enters it with Carry rows pending, as a stream of pieces, or the error that
// ends the stream at this file. There is one form — a file whose pieces all
// exist (a cached scan) is a stream that never waits.
type Unit struct {
	File string
	// Pieces yields the pieces of the file's scan (Reader.Scan) in row order:
	// the head that completes the straddling batch, when Carry is nonzero,
	// the batches, the tail. It returns nil after the last one, yield's error
	// as soon as it returns one, or the error that ends the file — and with it
	// the stream — after the pieces that preceded it. As ScanUnit returns it,
	// calling it is what scans the file, on the caller's goroutine; a unit
	// that came through a hand-off (Handoff) yields what its producer has
	// sent, and waits for the rest. Either way it is consumed once. Nil is a
	// file nobody has scanned: the cutter scans it itself.
	Pieces func(yield func(Piece) error) error
	// Carry is the rows the file was cut for (fewer than a batch; 0 is a
	// batch boundary, where a fleet shard always cuts).
	Carry int
	// Hit marks a unit a cache served: its pieces are shared with other
	// sessions.
	Hit bool
	Err error
}

// assembly is the rows of the batch being put together: views of the chunks
// they arrived in — a stripe is shorter than a batch more often than not —
// copied once, into columns sized exactly, when the batch is complete. What
// it pins meanwhile is the stripes, or the cached head and tail rows, those
// views were cut from, never a file. rows may start above zero with no
// parts: rows a consumer of the cut will supply (FileScan.Carry).
type assembly struct {
	batch int
	parts []*dwrf.Chunk
	rows  int
}

// cut passes the rows of chunk (nil is no rows), which continue the rows
// already in hand, on as batches: through full, each batch-row run in turn;
// rows that do not end one stay in hand. Only a batch that arrived in pieces
// is copied; whole batches at the current offset are row ranges of chunk.
func (a *assembly) cut(chunk *dwrf.Chunk, full func(rows *dwrf.Chunk) error) error {
	if chunk == nil || chunk.Rows() == 0 {
		return nil
	}
	lo, n := 0, chunk.Rows()
	if a.rows > 0 {
		lo = min(a.batch-a.rows, n)
		a.parts = append(a.parts, chunk.Slice(0, lo))
		if a.rows += lo; a.rows < a.batch {
			return nil
		}
		rows, err := a.take()
		if err != nil {
			return err
		}
		if err := full(rows); err != nil {
			return err
		}
	}
	for ; lo+a.batch <= n; lo += a.batch {
		if err := full(chunk.Slice(lo, lo+a.batch)); err != nil {
			return err
		}
	}
	if lo < n {
		a.parts, a.rows = append(a.parts, chunk.Slice(lo, n)), n-lo
	}
	return nil
}

// take returns the rows in hand as one chunk that owns its storage, nil
// when there are none, and leaves the assembly empty.
func (a *assembly) take() (*dwrf.Chunk, error) {
	parts := a.parts
	a.parts, a.rows = a.parts[:0], 0
	if len(parts) == 0 {
		return nil, nil
	}
	rows, err := dwrf.Concat(parts...)
	clear(parts) // the views pin their stripes no longer
	if err != nil {
		return nil, fmt.Errorf("reader: %w", err)
	}
	return rows, nil
}

// RunUnits is the cutter: the one place rows carry across a file boundary.
// It pulls units from next in file order, checks schema consistency, joins
// each file's head to the rows in hand, and emits any leftover rows as a
// final short batch — the same stream, byte for byte, whichever source feeds
// it (a serial Run, a ScanQueue of any size, a fleet of shards).
//
// A unit is usable when it was cut for exactly the rows now in hand
// (Unit.Carry): its head completes the straddling batch — the one batch of
// the file the cutter converts itself, since it holds rows of two files — its
// batches are emitted as they are and its tail becomes the rows in hand,
// always fewer than a batch. Cut for any other carry, or not scanned at all,
// the cutter scans the file itself at the rows it has.
//
// A unit whose pieces end in an error ends the stream there: every batch
// that lies wholly in the pieces before it has been emitted, as a serial
// scan would have.
func (r *Reader) RunUnits(ctx context.Context, next func() (Unit, bool), emit func(*Batch) error) error {
	pending := assembly{batch: r.spec.BatchSize}
	produce := func(rows *dwrf.Chunk) error { return r.produce(ctx, rows, emit) }
	nKeys := -1
	var u Unit
	cutPiece := func(p Piece) error {
		if p.Batch != nil {
			return emit(p.Batch)
		}
		if width := len(p.Rows.Keys()); nKeys < 0 {
			nKeys = width
		} else if width != nKeys {
			return fmt.Errorf("reader: file %q schema mismatch (%d vs %d features)", u.File, width, nKeys)
		}
		return pending.cut(p.Rows, produce)
	}

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var ok bool
		if u, ok = next(); !ok {
			break
		}
		if u.Err != nil {
			return u.Err
		}
		if u.Pieces == nil || u.Carry != pending.rows {
			if r.store == nil {
				return fmt.Errorf("reader: file %q entered mid-batch but the fleet has no local backend to re-fill it (misaligned spec needs Config.Backend)", u.File)
			}
			u = r.ScanUnit(ctx, u.File, pending.rows)
		}
		if err := u.Pieces(cutPiece); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	rows, err := pending.take()
	if err != nil || rows == nil {
		return err
	}
	return r.produce(ctx, rows, emit)
}

// fetchCPUPasses is how many per-byte passes the simulated fetch path
// spends on each fetched byte, standing in for the network stack,
// decryption, and checksumming a production DPP reader performs on
// fetched data (paper §6.3: fill = "fetching data from Tectonic and
// decrypting, decompressing (zstd), and decoding"). This makes fill CPU
// time scale with the bytes a scan actually fetches, so clustering's
// smaller files — and a narrower projection — cut fill time as they do
// in production (docs/ARCHITECTURE.md lists the substitution).
const fetchCPUPasses = 160

// fetchSink absorbs the checksum so the compiler cannot elide the pass;
// atomic because tier readers fill concurrently.
var fetchSink atomic.Uint64

func simulateFetchWork(data []byte) {
	var h uint64 = 1469598103934665603
	for pass := 0; pass < fetchCPUPasses; pass++ {
		for _, b := range data {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	fetchSink.Add(h)
}

// resolveColumns maps feature names to their column indices in a file's
// key list.
func resolveColumns(features, keys []string) ([]int, error) {
	index := make(map[string]int, len(keys))
	for i, k := range keys {
		index[k] = i
	}
	cols := make([]int, len(features))
	for i, f := range features {
		col, ok := index[f]
		if !ok {
			return nil, fmt.Errorf("reader: feature %q not in table schema", f)
		}
		cols[i] = col
	}
	return cols, nil
}

// ranged returns the size of the file at path and a ranged read over it. A
// raw-byte tier (storage.CachingBackend) holds whole blobs, so a file is
// looked up there once — one hit or miss per fill, whatever the
// projection — and the ranges are cut from the blob; any other backend is
// asked for each range.
func (r *Reader) ranged(path string) (int64, dwrf.Fetch, error) {
	if _, ok := r.store.(*storage.CachingBackend); ok {
		data, err := r.store.Get(path)
		if err != nil {
			return 0, nil, err
		}
		return int64(len(data)), dwrf.FetchFrom(data), nil
	}
	size, err := r.store.Size(path)
	if err != nil {
		return 0, nil, err
	}
	return size, func(off, n int64) ([]byte, error) { return r.store.ReadRange(path, off, n) }, nil
}

// source is one file mid-fill (the paper's fill stage: fetch, decrypt,
// decompress, decode): opened — the footer fetched and parsed, so the row
// count and schema are known, and the spec's projection resolved against
// it — with no stripe fetched yet. ReadBytes and the fetch cost model
// charge each range as it is fetched; FillTime is the time inside open and
// inside each stripe's read, never the time a stripe's consumer takes.
type source struct {
	r    *Reader
	path string
	file *dwrf.FileReader
	cols []int
}

// open starts the fill of the file at path. Cancellation is honoured
// before the first fetch.
func (r *Reader) open(ctx context.Context, path string) (*source, error) {
	start := time.Now()
	defer func() { r.stats.FillTime += time.Since(start) }()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	size, read, err := r.ranged(path)
	if err != nil {
		return nil, err
	}
	file, err := dwrf.Open(size, func(off, n int64) ([]byte, error) {
		data, err := read(off, n)
		r.stats.ReadBytes += int64(len(data))
		simulateFetchWork(data)
		return data, err
	})
	if err != nil {
		return nil, fmt.Errorf("reader: %s: %w", path, err)
	}
	cols, err := resolveColumns(r.consumed, file.SparseKeys())
	if err != nil {
		return nil, err
	}
	return &source{r: r, path: path, file: file, cols: cols}, nil
}

// stripes is the rest of the fill: it reads the file's stripes in order —
// per stripe the header and the streams of the row metadata, the dense
// features and the consumed sparse features; a spec that consumes every
// column fetches exactly the file — and hands each to yield, decoded, before
// it fetches the next. Every stripe is checked against the footer, so a
// fill that succeeds has yielded exactly the rows the footer counts.
// Cancellation is honoured before each stripe; yield's error ends the fill
// and is returned as it is.
func (s *source) stripes(ctx context.Context, yield func(*dwrf.Chunk) error) error {
	for i := 0; i < s.file.NumStripes(); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		stripe, err := s.file.StripeColumns(i, s.cols)
		s.r.stats.FillTime += time.Since(start)
		if err != nil {
			return fmt.Errorf("reader: %s: %w", s.path, err)
		}
		s.r.stats.RowsDecoded += int64(stripe.Rows())
		if err := yield(stripe); err != nil {
			return err
		}
	}
	return nil
}

// noRows is the file's schema with no rows in it: what a cut of the file
// has for a head or a tail when no row of it falls there.
func (s *source) noRows() *dwrf.Chunk {
	c, _ := dwrf.ChunkFromSamples(nil, s.file.SparseKeys(), s.file.DenseCount(), s.cols) // no row, none malformed
	return c
}

// produce converts and preprocesses one run of rows and emits the batch.
func (r *Reader) produce(ctx context.Context, rows *dwrf.Chunk, emit func(*Batch) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b, err := r.produceBatch(rows)
	if err != nil {
		return err
	}
	return emit(b)
}

// produceBatch runs the convert and process stages over the rows of a
// chunk fill decoded (or a row range of one), charging the reader's Stats.
func (r *Reader) produceBatch(rows *dwrf.Chunk) (*Batch, error) {
	b, err := r.convert(rows)
	if err != nil {
		return nil, err
	}
	if err := r.process(b); err != nil {
		return nil, err
	}
	r.stats.BatchesProduced++
	r.stats.SentBytes += int64(b.WireBytes())
	return b, nil
}

// convert is the feature-conversion stage: copy a chunk's rows into
// structured tensors, deduplicating the spec's feature groups into IKJTs
// (O3). The chunk holds exactly the consumed features, in
// ConsumedFeatures order, so each feature is one contiguous value-range
// copy found by position.
func (r *Reader) convert(rows *dwrf.Chunk) (*Batch, error) {
	start := time.Now()
	defer func() { r.stats.ConvertTime += time.Since(start) }()

	if got := len(rows.Columns()); got != len(r.consumed) {
		return nil, fmt.Errorf("reader: chunk holds %d sparse columns, spec consumes %d", got, len(r.consumed))
	}
	n := rows.Rows()
	b := &Batch{Size: n}

	b.Dense = tensor.NewDense(n, rows.DenseWidth())
	copy(b.Dense.Data, rows.Dense())
	b.Labels = make([]float32, n)
	for i, l := range rows.Labels() {
		b.Labels[i] = float32(l)
	}

	if len(r.spec.SparseFeatures) > 0 {
		tensors := make([]tensor.Jagged, len(r.spec.SparseFeatures))
		for i := range tensors {
			tensors[i] = rows.Jagged(i)
			r.stats.ConvertValues += int64(tensors[i].NumValues())
			b.OriginalSparseValues += tensors[i].NumValues()
		}
		kjt, err := tensor.NewKJT(r.spec.SparseFeatures, tensors)
		if err != nil {
			return nil, err
		}
		b.KJT = kjt
	}

	// Duplicate detection hashes every gathered value once more (paper
	// §6.3), so a dedup group charges 2×values to ConvertValues; so does a
	// partial feature, whose shift detection scans them.
	for gi, group := range r.spec.DedupSparseFeatures {
		tensors := make([]tensor.Jagged, len(group))
		values := 0
		for i := range group {
			tensors[i] = rows.Jagged(r.groupAt[gi] + i)
			values += tensors[i].NumValues()
		}
		ik, err := r.dedupers[gi].Dedup(group, tensors)
		if err != nil {
			return nil, err
		}
		r.stats.ConvertValues += 2 * int64(values) // gather + hash pass
		b.OriginalSparseValues += values
		b.IKJTs = append(b.IKJTs, ik)
	}
	for pi, key := range r.spec.PartialDedupFeatures {
		j := rows.Jagged(r.partialAt + pi)
		r.stats.ConvertValues += 2 * int64(j.NumValues()) // gather + shift scan
		b.OriginalSparseValues += j.NumValues()
		b.Partials = append(b.Partials, tensor.PartialDedup(key, j))
	}
	return b, nil
}

// process runs the spec's transforms. Transforms over deduplicated groups
// run on the deduplicated slices only — the paper's transparent IKJT
// preprocessing wrapper (O4).
func (r *Reader) process(b *Batch) error {
	start := time.Now()
	defer func() { r.stats.ProcessTime += time.Since(start) }()

	for _, dt := range r.spec.DenseTransforms {
		dt.Apply(b.Dense)
	}

	for _, tr := range r.spec.SparseTransforms {
		for _, key := range tr.Keys() {
			if r.spec.IsPartial(key) {
				if !tr.ElementWise() {
					return fmt.Errorf("reader: transform %q is not element-wise and cannot target partial feature %q", tr.Name(), key)
				}
				p, err := applyToPartial(b, key, tr)
				if err != nil {
					return err
				}
				r.stats.ProcessOps += tr.Cost(len(p.Values))
				continue
			}
			if gi := r.spec.DedupGroupOf(key); gi >= 0 {
				ik := b.IKJTs[gi]
				dd, _ := ik.Deduped(key)
				r.stats.ProcessOps += tr.Cost(dd.NumValues())
				out, err := ik.MapDeduped(key, tr.Apply)
				if err != nil {
					return fmt.Errorf("reader: transform %q: %w", tr.Name(), err)
				}
				b.IKJTs[gi] = out
				continue
			}
			if b.KJT == nil {
				return fmt.Errorf("reader: transform %q references %q but batch has no KJT", tr.Name(), key)
			}
			j, ok := b.KJT.Feature(key)
			if !ok {
				return fmt.Errorf("reader: transform %q references missing feature %q", tr.Name(), key)
			}
			r.stats.ProcessOps += tr.Cost(j.NumValues())
			kjt, err := replaceKJTFeature(b.KJT, key, tr.Apply(j))
			if err != nil {
				return err
			}
			b.KJT = kjt
		}
	}
	return nil
}

// applyToPartial runs an element-wise transform over a partial IKJT's
// shared value buffer in place of the per-row view: every logical row
// aliases a window of the buffer, so one pass transforms the whole batch
// (O4 at its strongest).
func applyToPartial(b *Batch, key string, tr SparseTransform) (*tensor.PartialIKJT, error) {
	for pi, p := range b.Partials {
		if p.Key != key {
			continue
		}
		wrapped := tensor.NewJagged([][]tensor.Value{p.Values})
		out := tr.Apply(wrapped)
		if out.NumValues() != len(p.Values) {
			return nil, fmt.Errorf("reader: transform %q changed partial value count for %q", tr.Name(), key)
		}
		np := &tensor.PartialIKJT{
			Key:    p.Key,
			Values: append([]tensor.Value(nil), out.Values...),
			Lookup: p.Lookup,
		}
		b.Partials[pi] = np
		return np, nil
	}
	return nil, fmt.Errorf("reader: batch has no partial feature %q", key)
}

// replaceKJTFeature rebuilds a KJT with one feature's tensor replaced.
func replaceKJTFeature(k *tensor.KJT, key string, j tensor.Jagged) (*tensor.KJT, error) {
	keys := k.Keys()
	tensors := make([]tensor.Jagged, len(keys))
	for i, kk := range keys {
		if kk == key {
			tensors[i] = j
		} else {
			tensors[i] = k.FeatureAt(i)
		}
	}
	return tensor.NewKJT(keys, tensors)
}
