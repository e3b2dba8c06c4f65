package reader

import (
	"context"

	"repro/internal/datagen"
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
	// than the spec's batch size). A multi-file scan carries them into
	// the next file; the final file's tail becomes the short last batch.
	// Rows are full-width, with empty lists for features outside the spec.
	Tail []datagen.Sample
	// Keys and Dense describe the file's schema (sparse feature names
	// and dense-feature width), needed to convert carried tail rows.
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
	for i := range fs.Tail {
		total += sampleMemBytes(&fs.Tail[i])
	}
	return total
}

// sampleMemBytes is what one row pins: the struct, one list header per
// schema feature, and the sparse and dense payloads. That is exact for
// rows decoded one by one and for the rows ScanFile leaves in a Tail,
// which are views over a chunk compacted to just those rows; it would
// undercount views over a whole file's chunk, which pin all of it.
func sampleMemBytes(s *datagen.Sample) int64 {
	const structOverhead = 88 // 4 int64s, label, 2 slice headers
	total := int64(structOverhead) + 4*int64(cap(s.Dense))
	for _, row := range s.Sparse {
		total += 24 + 8*int64(cap(row))
	}
	return total
}

// ScanFile fills one file and cuts its rows into complete batches,
// returning them with the leftover tail. All stages charge the reader's
// Stats exactly as Run does, so a scan assembled from ScanFile calls
// (plus ProduceBatch for carried rows) reports the same deterministic
// counters as a serial Run over the same files.
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
	fs.Tail = chunk.Slice(lo, n).Clone().Samples()
	return fs, nil
}

// FillFile runs only the fill stage over one file: fetch, decrypt-
// decompress simulation, and DWRF decode, returning the decoded rows and
// the file schema. The shared-scan path uses it when a scan enters a file
// with carried rows — batch boundaries then depend on the carry, so the
// file's batches cannot be shared, but its decode still can be skipped by
// a storage-layer cache underneath.
//
// The rows are views over the file's column chunk (dwrf.Chunk.Samples):
// full-width, with empty lists for features the spec does not consume.
func (r *Reader) FillFile(ctx context.Context, file string) ([]datagen.Sample, []string, int, error) {
	chunk, err := r.fill(ctx, file)
	if err != nil {
		return nil, nil, 0, err
	}
	return chunk.Samples(), chunk.Keys(), chunk.DenseWidth(), nil
}

// BatchSize reports the spec's rows-per-batch, letting scan composers cut
// carried rows without re-deriving the spec.
func (r *Reader) BatchSize() int { return r.spec.BatchSize }
