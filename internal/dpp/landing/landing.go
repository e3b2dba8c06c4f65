// Package landing is the live end of the ingestion pipeline: a Writer
// that joins raw etl log streams into labeled samples, batches them by
// count and flush interval, and appends sealed DWRF files to a growing
// hourly partition — the scribe → etl → time-partitioned DWRF landing
// path the paper's preprocessing service is fed by (§2.1).
//
// Publication is atomic from a reader's point of view: a sealed file is
// fully written to the store before its path is added to the catalog, so
// a session planning (or tailing) the table can always open every file
// the catalog names. Together with the catalog's publish-sequence
// ordering, that is the producer half of the Follow determinism
// contract: for any landed-file prefix P, a tailing session's stream
// over P is byte-identical to a cold session opened on the frozen P.
package landing

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dwrf"
	"repro/internal/etl"
	"repro/internal/lakefs"
)

// Config wires a Writer to its table.
type Config struct {
	// Store and Catalog receive the sealed files: Put first, AddFile
	// second (the atomic-publish ordering).
	Store   *lakefs.Store
	Catalog *lakefs.Catalog
	// Table is the table every sealed file lands into.
	Table string
	// Schema validates and encodes the appended samples.
	Schema *datagen.Schema
	// FlushRows seals a file once this many samples are buffered (the
	// count half of the batcher). 0 picks DefaultFlushRows.
	FlushRows int
	// FlushInterval seals a non-empty buffer this long after its first
	// buffered row even if FlushRows was never reached (the latency
	// bound half). 0 disables timed flushes: sealing then happens only
	// on FlushRows, hour advance, Flush, or Close.
	FlushInterval time.Duration
	// Cluster applies etl.ClusterBySession to each sealed file's rows
	// (the paper's O2 job), so landed files are dedup-friendly.
	Cluster bool
	// Writer tunes the DWRF encoding of sealed files.
	Writer dwrf.WriterOptions
	// Clock drives the interval batcher; nil uses the wall clock. Tests
	// drive flush timing with testutil.Clock.
	Clock dpp.Clock
}

// DefaultFlushRows is the count trigger used when Config leaves
// FlushRows zero: small enough that a live tail sees files at
// interactive latency, large enough that files amortize their stripe
// and header overhead.
const DefaultFlushRows = 1024

// Writer lands joined samples as sealed DWRF files on a live partition.
// Append/LandJoined/Flush/Close are safe for concurrent use; rows are
// sealed in append order.
type Writer struct {
	cfg   Config
	clock dpp.Clock

	mu     sync.Mutex
	buf    []datagen.Sample
	hour   int64 // partition hour of the buffered rows
	bufGen uint64
	seq    int // next sealed-file number, writer-global so paths never collide
	err    error
	closed bool

	stats WriterStats

	done chan struct{}
	wg   sync.WaitGroup
}

// WriterStats is a snapshot of a Writer's landing accounting.
type WriterStats struct {
	// FilesLanded and RowsLanded count sealed files and the rows inside
	// them.
	FilesLanded, RowsLanded int64
	// Flushes counts seal events; TimedFlushes counts the subset forced
	// by FlushInterval rather than FlushRows/hour-advance/Flush/Close.
	Flushes, TimedFlushes int64
	// LastHour is the partition hour of the most recently sealed file.
	LastHour int64
	// BufferedRows is the current unsealed backlog.
	BufferedRows int
}

// NewWriter validates the config and starts the interval batcher.
func NewWriter(cfg Config) (*Writer, error) {
	if cfg.Store == nil || cfg.Catalog == nil {
		return nil, fmt.Errorf("landing: writer needs a store and a catalog")
	}
	if cfg.Table == "" {
		return nil, fmt.Errorf("landing: writer needs a table name")
	}
	if cfg.Schema == nil {
		return nil, fmt.Errorf("landing: writer needs a schema")
	}
	if cfg.FlushRows == 0 {
		cfg.FlushRows = DefaultFlushRows
	}
	if cfg.FlushRows < 0 {
		return nil, fmt.Errorf("landing: negative flush-row count %d", cfg.FlushRows)
	}
	if cfg.FlushInterval < 0 {
		return nil, fmt.Errorf("landing: negative flush interval %v", cfg.FlushInterval)
	}
	w := &Writer{cfg: cfg, clock: cfg.Clock, done: make(chan struct{})}
	if w.clock == nil {
		w.clock = dpp.SystemClock{}
	}
	if cfg.FlushInterval > 0 {
		w.wg.Add(1)
		go w.runIntervalFlusher()
	}
	return w, nil
}

// runIntervalFlusher is the interval half of the count+interval batcher:
// whenever rows sit unsealed for a full FlushInterval, seal them. The
// buffer generation makes the timer first-row-relative: each armed tick
// remembers which buffer it was armed against, and only flushes if that
// buffer is still the one pending.
func (w *Writer) runIntervalFlusher() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		gen := w.bufGen
		pending := len(w.buf) > 0
		w.mu.Unlock()
		select {
		case <-w.done:
			return
		case <-w.clock.After(w.cfg.FlushInterval):
			if !pending {
				continue
			}
			w.mu.Lock()
			if !w.closed && w.err == nil && len(w.buf) > 0 && w.bufGen == gen {
				w.stats.TimedFlushes++
				w.sealLocked()
			}
			w.mu.Unlock()
		}
	}
}

// Append buffers samples for the given partition hour, sealing a file
// whenever the count trigger fires — and, first, whenever the hour
// advances (a file never spans partitions). Returns the writer's sticky
// error: once a seal fails, the writer refuses further rows rather than
// silently dropping or reordering them.
func (w *Writer) Append(hour int64, samples ...datagen.Sample) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("landing: append after Close")
	}
	if w.err != nil {
		return w.err
	}
	for _, s := range samples {
		if len(w.buf) > 0 && hour != w.hour {
			w.sealLocked()
			if w.err != nil {
				return w.err
			}
		}
		if len(w.buf) == 0 {
			w.hour = hour
			w.bufGen++
		}
		w.buf = append(w.buf, s)
		if len(w.buf) >= w.cfg.FlushRows {
			w.sealLocked()
			if w.err != nil {
				return w.err
			}
		}
	}
	return nil
}

// LandJoined runs the etl join over one slice of raw log streams and
// appends the labeled result, returning how many samples survived the
// inner join.
func (w *Writer) LandJoined(hour int64, feats []etl.FeatureRecord, events []etl.EventRecord) (int, error) {
	joined := etl.Join(feats, events)
	return len(joined), w.Append(hour, joined...)
}

// Flush seals the buffered rows (if any) into a file immediately.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if len(w.buf) > 0 {
		w.sealLocked()
	}
	return w.err
}

// sealLocked encodes the buffered rows into one DWRF file and publishes
// it: store.Put first, catalog.AddFile — with the file's row count — second,
// so no reader ever observes a catalogued path without its bytes. Callers
// hold w.mu. On
// failure the writer goes sticky-failed with the buffer intact.
func (w *Writer) sealLocked() {
	rows := w.buf
	if w.cfg.Cluster {
		rows = etl.ClusterBySession(rows)
	}
	fw, err := dwrf.NewFileWriter(w.cfg.Schema, w.cfg.Writer)
	if err != nil {
		w.err = err
		return
	}
	if err := fw.WriteRows(rows); err != nil {
		w.err = err
		return
	}
	data, _, err := fw.Finish()
	if err != nil {
		w.err = err
		return
	}
	path := fmt.Sprintf("%s/hour=%d/landed-%06d.dwrf", w.cfg.Table, w.hour, w.seq)
	if err := w.cfg.Store.Put(path, data); err != nil {
		w.err = err
		return
	}
	w.cfg.Catalog.AddFile(w.cfg.Table, w.hour, path, len(rows))
	w.seq++
	w.stats.Flushes++
	w.stats.FilesLanded++
	w.stats.RowsLanded += int64(len(w.buf))
	w.stats.LastHour = w.hour
	w.buf = w.buf[:0]
	w.bufGen++
}

// Close seals any buffered rows and stops the interval batcher. Further
// Appends fail. Returns the writer's final error state.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	if w.err == nil && len(w.buf) > 0 {
		w.sealLocked()
	}
	err := w.err
	w.mu.Unlock()
	close(w.done)
	w.wg.Wait()
	return err
}

// Stats returns a snapshot of the landing accounting.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.BufferedRows = len(w.buf)
	return st
}
