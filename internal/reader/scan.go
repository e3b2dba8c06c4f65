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
	// entered on a batch boundary.
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

// Unit is the finished scan as the unit a cutter reads: the pieces the Scan
// it was collected from yielded, all there at once. hit marks it served by a
// cache.
func (fs *FileScan) Unit(file string, hit bool) Unit {
	return Unit{File: file, Carry: fs.Carry, Hit: hit, Pieces: func(yield func(Piece) error) error {
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

// collect files the next piece of the scan: the first rows of a scan that
// carried rows in are its head, any others its tail.
func (fs *FileScan) collect(p Piece) {
	switch {
	case p.Batch != nil:
		fs.Batches = append(fs.Batches, p.Batch)
	case fs.Carry > 0 && fs.Head == nil:
		fs.Head = p.Rows
	default:
		fs.Tail = p.Rows
	}
}

// Scan is the one fill → convert → process pipeline over a file, what every
// source of a batch stream runs: it fills the file and cuts its rows, stripe
// by stripe as they are decoded, for a scan entering it with carry rows
// pending (0 ≤ carry < batch), and hands yield each piece of the cut the
// moment it exists, keeping none: the head that completes the straddling
// batch (carry > 0 only; assembled, so it owns its storage, but not converted
// — it joins rows of another file), each complete batch after it, and last
// the leftover tail — always, with no rows in it when the file ends on a
// batch boundary. The carried rows are the consumer's: counted here, held
// there. opened, when non-nil, hears the file's row count as soon as the
// footer is parsed, before any stripe is fetched; its error ends the scan
// there.
//
// All stages charge the reader's Stats, so the scans of a file list, each at
// the carry the files before it leave, and the cutter that joins them do
// together exactly a serial Run's work — Run is that, on one reader.
//
// A file whose k-th stripe is damaged has by then yielded every piece cut
// from the stripes before the damage: the consumer sees the serial stream's
// prefix, then the error. yield's own error ends the scan and is returned as
// it is.
func (r *Reader) Scan(ctx context.Context, file string, carry int, opened func(rows int) error, yield func(Piece) error) error {
	src, err := r.open(ctx, file)
	if err != nil {
		return err
	}
	if opened != nil {
		if err := opened(src.file.NumRows()); err != nil {
			return err
		}
	}
	rows := assembly{batch: r.spec.BatchSize, rows: carry}
	head := carry > 0
	err = src.stripes(ctx, func(stripe *dwrf.Chunk) error {
		return rows.cut(stripe, func(full *dwrf.Chunk) error {
			if head {
				head = false
				return yield(Piece{Rows: full})
			}
			return r.produce(ctx, full, func(b *Batch) error { return yield(Piece{Batch: b}) })
		})
	})
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	rest, err := rows.take()
	if err != nil {
		return err
	}
	if rest == nil {
		rest = src.noRows()
	}
	if head { // the file ended inside the straddling batch
		if err := yield(Piece{Rows: rest}); err != nil {
			return err
		}
		rest = src.noRows()
	}
	return yield(Piece{Rows: rest})
}

// ScanFile is Scan with the pieces kept as well as yielded (a nil yield is a
// caller that wants only the result): the whole FileScan a cache stores and
// replays (FileScan.Unit), or an error — a damaged file yields no scan. It is
// the compute function behind dpp.ScanCache entries: the result depends only
// on (file contents, Spec.Fingerprint(), carry), which is what makes
// memoizing it sound.
func (r *Reader) ScanFile(ctx context.Context, file string, carry int, opened func(rows int) error, yield func(Piece) error) (*FileScan, error) {
	fs := &FileScan{Carry: carry}
	err := r.Scan(ctx, file, carry, opened, func(p Piece) error {
		fs.collect(p)
		if yield == nil {
			return nil
		}
		return yield(p)
	})
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// ScanUnit is the unit of a file cut at carry, not yet scanned: reading its
// pieces is what scans the file.
func (r *Reader) ScanUnit(ctx context.Context, file string, carry int) Unit {
	return Unit{File: file, Carry: carry, Pieces: func(yield func(Piece) error) error {
		return r.Scan(ctx, file, carry, nil, yield)
	}}
}
