package reader

import (
	"context"

	"repro/internal/dwrf"
)

// FileScan is the file-aligned unit of work the cross-session scan cache
// (dpp.ScanCache) shares between sessions: one file cut for a scan that
// enters it with Carry rows pending — the rows that complete the
// straddling batch, every complete batch that can be cut from the file's
// rows alone after them, and the leftover tail rows that carry into the
// next file of a multi-file scan.
//
// A FileScan is immutable once built. Its Batches, Head and Tail may be
// handed to any number of concurrent consumers; batches never alias reader
// scratch (the dedup tables are reset, not shared), and conversion copies
// row data, so consumers of cached batches and holders of Head or Tail
// rows never observe each other.
type FileScan struct {
	// Carry is how many rows were pending when the scan entered the file
	// (fewer than the spec's batch size); the scan is the right cut of the
	// file for exactly the streams that arrive with that many. 0 is a file
	// entered on a batch boundary — what a fleet shard always serves.
	Carry int
	// Head holds the file's first min(batch − Carry, rows) rows when Carry
	// is nonzero: the rows that join the pending ones in the batch that
	// straddles the file boundary, which only the consuming scan can
	// convert. Owns its storage, like Tail. Nil when Carry is 0.
	Head *dwrf.Chunk
	// Batches are the complete batches cut from the file's rows after
	// Head, in row order: byte-identical to the batches an uncached serial
	// Run that entered the file with Carry rows pending would emit while
	// inside the file.
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

// Rows is the file's row count: what the scan adds to a carry chain.
func (fs *FileScan) Rows() int {
	n := 0
	for _, b := range fs.Batches {
		n += b.Size
	}
	for _, c := range []*dwrf.Chunk{fs.Head, fs.Tail} {
		if c != nil {
			n += c.Rows()
		}
	}
	return n
}

// MemBytes estimates the resident size of the scan for cache-budget
// accounting: encoded batch bytes plus what the head and tail rows pin. An
// estimate is sufficient — the cache budget bounds order-of-magnitude
// memory, not exact allocation.
func (fs *FileScan) MemBytes() int64 {
	var total int64
	for _, b := range fs.Batches {
		total += int64(b.WireBytes())
	}
	for _, c := range []*dwrf.Chunk{fs.Head, fs.Tail} {
		if c != nil {
			total += c.MemBytes()
		}
	}
	return total
}

// ScanFile fills one file and cuts its rows, stripe by stripe as they are
// decoded, for a scan entering it with carry rows pending (0 ≤ carry <
// batch): the head that completes the straddling batch, the complete batches
// after it, the leftover tail. All stages charge the reader's Stats exactly
// as Run does, so a stream the cutter assembles from ScanFile units cut at
// its own carries reports the same deterministic counters as a serial Run
// over the same files. onRows, when non-nil, hears the file's row count as
// soon as the footer is parsed, before any stripe is fetched. The scan is
// whole or it is an error: a file whose k-th stripe is damaged yields no
// scan, whatever was cut from the stripes before it.
//
// This is the compute function behind dpp.ScanCache entries: the result
// depends only on (file contents, Spec.Fingerprint(), carry), which is
// what makes memoizing it sound.
func (r *Reader) ScanFile(ctx context.Context, file string, carry int, onRows func(rows int)) (*FileScan, error) {
	src, err := r.open(ctx, file)
	if err != nil {
		return nil, err
	}
	if onRows != nil {
		onRows(src.file.NumRows())
	}
	fs := &FileScan{Carry: carry, Keys: src.file.SparseKeys(), Dense: src.file.DenseCount()}
	// The carried rows are the consumer's: counted here, held there. The
	// first rows to complete a batch with them are the head, which is
	// assembled — so it owns its storage, as the tail will — but not
	// converted.
	rows := assembly{batch: r.spec.BatchSize, rows: carry}
	head := carry > 0
	err = src.stripes(ctx, func(stripe *dwrf.Chunk) error {
		return rows.cut(stripe, func(full *dwrf.Chunk) error {
			if head {
				fs.Head, head = full, false
				return nil
			}
			b, err := r.produceBatch(full)
			if err != nil {
				return err
			}
			fs.Batches = append(fs.Batches, b)
			return nil
		})
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	rest, err := rows.take()
	if err != nil {
		return nil, err
	}
	if rest == nil {
		rest = src.noRows()
	}
	if head { // the file ended inside the straddling batch
		fs.Head, rest = rest, src.noRows()
	}
	fs.Tail = rest
	return fs, nil
}

// ScanUnit is the Fill of an unshared file-unit scan: the file cut as if
// entered on a batch boundary (the consumer of a unit stream cuts the
// carry itself), wrapped as a Unit.
func (r *Reader) ScanUnit(ctx context.Context, c Claim) Unit {
	scan, err := r.ScanFile(ctx, c.File, 0, nil)
	return Unit{File: c.File, Scan: scan, Err: err}
}
