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
	// Never nil: with no rows in it, it still names the file's schema, which
	// the cutter's schema check and the unit wire's closing record read.
	Tail *dwrf.Chunk
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

// Unit is the finished scan as the unit a cutter reads: the pieces a
// ScanFile that computed it yielded, all there at once. hit marks it served
// by a cache.
func (fs *FileScan) Unit(file string, hit bool) Unit {
	return Unit{File: file, Cut: true, Carry: fs.Carry, Hit: hit, Pieces: func(yield func(Piece) error) error {
		if fs.Head != nil {
			if err := yield(Piece{Rows: fs.Head}); err != nil {
				return err
			}
		}
		for _, b := range fs.Batches {
			if err := yield(Piece{Batch: b}); err != nil {
				return err
			}
		}
		return yield(Piece{Rows: fs.Tail})
	}}
}

// ScanFile fills one file and cuts its rows, stripe by stripe as they are
// decoded, for a scan entering it with carry rows pending (0 ≤ carry <
// batch), and hands yield each piece of the cut the moment it exists: the
// head that completes the straddling batch (carry > 0 only), each complete
// batch after it, and last the leftover tail — always, with no rows in it
// when the file ends on a batch boundary. All stages charge the reader's
// Stats exactly as Run does, so a stream the cutter assembles from ScanFile
// units cut at its own carries reports the same deterministic counters as a
// serial Run over the same files. opened, when non-nil, hears the file's row
// count as soon as the footer is parsed, before any stripe is fetched; a nil
// yield is a caller that wants only the result.
//
// The result is the same pieces, whole: what a cache stores and replays
// (FileScan.Unit). It is whole or it is an error — a file whose k-th stripe
// is damaged yields no scan — but yield has by then been handed every piece
// cut from the stripes before the damage: the consumer of the pieces sees
// the serial stream's prefix, then the error. yield's own error ends the scan
// and is returned as it is.
//
// This is the compute function behind dpp.ScanCache entries: the result
// depends only on (file contents, Spec.Fingerprint(), carry), which is
// what makes memoizing it sound.
func (r *Reader) ScanFile(ctx context.Context, file string, carry int, opened func(rows int), yield func(Piece) error) (*FileScan, error) {
	src, err := r.open(ctx, file)
	if err != nil {
		return nil, err
	}
	if opened != nil {
		opened(src.file.NumRows())
	}
	if yield == nil {
		yield = func(Piece) error { return nil }
	}
	fs := &FileScan{Carry: carry}
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
				return yield(Piece{Rows: full})
			}
			b, err := r.produceBatch(full)
			if err != nil {
				return err
			}
			fs.Batches = append(fs.Batches, b)
			return yield(Piece{Batch: b})
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
		if err := yield(Piece{Rows: fs.Head}); err != nil {
			return nil, err
		}
	}
	fs.Tail = rest
	if err := yield(Piece{Rows: rest}); err != nil {
		return nil, err
	}
	return fs, nil
}

// ScanUnit is the Unit of an unshared file-unit scan: the file cut as if
// entered on a batch boundary (the consumer of a unit stream cuts the
// carry itself). Reading its pieces is what scans the file.
func (r *Reader) ScanUnit(ctx context.Context, file string) Unit {
	return Unit{File: file, Cut: true, Pieces: func(yield func(Piece) error) error {
		_, err := r.ScanFile(ctx, file, 0, nil, yield)
		return err
	}}
}
