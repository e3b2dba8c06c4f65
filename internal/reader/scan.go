package reader

import (
	"context"

	"repro/internal/dwrf"
)

// FileScan is the file-aligned unit of work the cross-session scan cache
// (dpp.ScanCache) shares between sessions: every complete batch that can
// be cut from one file's rows alone, plus the leftover tail rows that
// must carry into the next file of a multi-file scan.
//
// A FileScan is immutable once built. Its Batches and Tail may be handed
// to any number of concurrent consumers; batches never alias reader
// scratch (the dedup tables are reset, not shared), and conversion copies
// row data, so consumers of cached batches and holders of Tail rows never
// observe each other.
type FileScan struct {
	// Batches are the complete batches cut from the file's rows, in row
	// order. When a scan enters the file with no pending rows, these are
	// byte-identical to the batches an uncached serial Run would emit
	// while inside the file.
	Batches []*Batch
	// Tail holds the rows after the last complete batch (always fewer
	// than the spec's batch size), as a chunk of the spec's consumed
	// columns that owns its storage. A multi-file scan carries them into
	// the next file; the final file's tail becomes the short last batch.
	Tail *dwrf.Chunk
	// Keys and Dense describe the file's schema (sparse feature names
	// and dense-feature width): what the cutter's schema check and the
	// unit wire frame read.
	Keys  []string
	Dense int
}

// MemBytes estimates the resident size of the scan for cache-budget
// accounting: encoded batch bytes plus what the tail rows pin. An estimate
// is sufficient — the cache budget bounds order-of-magnitude memory, not
// exact allocation.
func (fs *FileScan) MemBytes() int64 {
	var total int64
	for _, b := range fs.Batches {
		total += int64(b.WireBytes())
	}
	if fs.Tail != nil {
		total += fs.Tail.MemBytes()
	}
	return total
}

// ScanFile fills one file and cuts its rows into complete batches,
// returning them with the leftover tail. All stages charge the reader's
// Stats exactly as Run does, so a stream the cutter assembles from
// ScanFile units reports the same deterministic counters as a serial Run
// over the same files.
//
// This is the compute function behind dpp.ScanCache entries: the result
// depends only on (file contents, Spec.Fingerprint()), which is what
// makes memoizing it sound.
func (r *Reader) ScanFile(ctx context.Context, file string) (*FileScan, error) {
	chunk, err := r.fill(ctx, file)
	if err != nil {
		return nil, err
	}
	fs := &FileScan{Keys: chunk.Keys(), Dense: chunk.DenseWidth()}
	lo, n, batch := 0, chunk.Rows(), r.spec.BatchSize
	for ; lo+batch <= n; lo += batch {
		b, err := r.produceBatch(chunk.Slice(lo, lo+batch))
		if err != nil {
			return nil, err
		}
		fs.Batches = append(fs.Batches, b)
	}
	// A cached scan outlives the fill: the tail is copied out so that it
	// pins its own rows, not the file's whole chunk.
	fs.Tail = chunk.Slice(lo, n).Clone()
	return fs, nil
}
