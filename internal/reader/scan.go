package reader

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/dwrf"
)

// FileScan is one file's scan as an append-only log of its pieces: the head,
// batches and tail Reader.Scan cuts for a scan that enters the file with
// Carry rows pending. One source writes it — a fill, a ScanCache compute, a
// fleet pump — with Send and then Close, and each consumer reads it through
// a unit of its own (Follow), from the first piece, while it is written: a
// piece reaches every reader the moment it is sent, and a reader's wait for
// the next is its own merge's, so Stall and Abort mean for it what they mean
// for any unit. It is the scan the cross-session scan cache
// (dpp.ScanCache) shares between sessions.
//
// A kept log keeps every piece for readers still to come — a cache holds
// it. A log no cache holds has one reader and drops each piece once that
// reader has it, so an unshared scan keeps nothing. Send fails once every
// reader's merge has aborted: nobody is left to see the scan.
//
// Pieces never change once sent. Batches and rows may be handed to any
// number of concurrent consumers: batches never alias reader scratch (the
// dedup tables are reset, not shared), conversion copies row data, and the
// head and tail rows own their storage, so consumers never observe each
// other.
type FileScan struct {
	// Carry is how many rows were pending when the scan entered the file
	// (fewer than the spec's batch size); the scan is the right cut of the
	// file for exactly the streams that arrive with that many. 0 is a file
	// entered on a batch boundary.
	Carry int

	mu sync.Mutex
	// pieces are the log from piece from on: all of it when kept, else the
	// pieces its one reader has yet to take. few holds them while no more
	// than its length are waiting — always, when the reader keeps up — so a
	// file's log is one allocation, not one and a slice's growth.
	pieces []Piece
	from   int
	few    [4]Piece
	// readers are the merges of the units following the log while it is
	// written, the first of them in one. Only appended to: a snapshot taken
	// under mu stays valid after it.
	readers []*OrderedMerge[Unit]
	one     [1]*OrderedMerge[Unit]
	err     error // what ended the scan, once done
	keep    bool
	done    bool
	// abandoned marks a log whose every reader's merge aborted before it was
	// done: it is never completed and takes no new reader.
	abandoned bool
}

// NewFileScan returns the empty log of a scan cut at carry; keep makes it a
// log a cache holds.
func NewFileScan(carry int, keep bool) *FileScan {
	return &FileScan{Carry: carry, keep: keep}
}

// Send appends the scan's next piece and wakes the readers. It fails once
// every reader's merge has aborted (a log nobody follows yet never fails).
// The yield to the scheduler lets a cutter this piece made runnable have a
// CPU now: a pool that saturates every CPU with fetch work
// (simulateFetchWork never blocks) would otherwise keep it waiting for the
// runtime's preemption tick, ten milliseconds, with the rows of its next
// batch already decoded.
func (fs *FileScan) Send(p Piece) error {
	fs.mu.Lock()
	if len(fs.pieces) == 0 {
		fs.pieces = fs.few[:0]
	}
	fs.pieces = append(fs.pieces, p)
	readers := fs.readers
	fs.mu.Unlock()
	if !wake(readers) && len(readers) > 0 {
		fs.mu.Lock()
		// A reader that arrived since the snapshot reads this piece itself.
		abandoned := len(fs.readers) == len(readers)
		fs.abandoned = abandoned
		fs.mu.Unlock()
		if abandoned {
			return context.Canceled
		}
	}
	runtime.Gosched()
	return nil
}

// wake wakes the readers parked on merges, reporting whether any of them is
// still there to read.
func wake(merges []*OrderedMerge[Unit]) (live bool) {
	for _, m := range merges {
		live = m.Update(func() {}) || live
	}
	return live
}

// Close ends the log: after the pieces sent so far, every reader's unit
// returns err. It returns err. A finished log forgets its readers' merges,
// so a cached log keeps no ended session's stream reachable.
func (fs *FileScan) Close(err error) error {
	fs.mu.Lock()
	fs.done, fs.err = true, err
	readers := fs.readers
	fs.mu.Unlock()
	wake(readers)
	fs.mu.Lock()
	fs.readers, fs.one = nil, [1]*OrderedMerge[Unit]{}
	fs.mu.Unlock()
	return err
}

// Sent is how many pieces have gone into the log: what a producer that
// takes the file over from another — a fleet pump from a dead shard's — has
// to skip of its own to continue it.
func (fs *FileScan) Sent() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.from + len(fs.pieces)
}

// Follow deposits u at slot idx of m as a reader of the log: its Carry is
// the log's, and its Pieces yields the log's pieces from the first, waiting
// in m for those not yet sent, then what ended the log. Of a unit a cache
// served (u.Hit), served is charged the egress of the batches as they are
// read — they are shipped, not produced — on the goroutine reading them.
// It returns false, depositing nothing, for an abandoned log, which will
// never be complete.
func (fs *FileScan) Follow(m *OrderedMerge[Unit], idx int, u Unit, served *Stats) bool {
	fs.mu.Lock()
	if fs.abandoned {
		fs.mu.Unlock()
		return false
	}
	if !fs.done { // a finished log wakes nobody again
		if fs.readers == nil {
			fs.readers = fs.one[:0]
		}
		fs.readers = append(fs.readers, m)
	}
	fs.mu.Unlock()
	hit := u.Hit
	u.Carry = fs.Carry
	u.Pieces = func(yield func(Piece) error) error {
		for at := 0; ; at++ {
			var p Piece
			var got bool
			var err error
			if !m.Wait(func() bool {
				fs.mu.Lock()
				defer fs.mu.Unlock()
				if got = at < fs.from+len(fs.pieces); got {
					p = fs.pieces[at-fs.from]
					if !fs.keep {
						fs.pieces[0] = Piece{}
						fs.pieces, fs.from = fs.pieces[1:], fs.from+1
					}
				}
				err = fs.err
				return got || fs.done
			}) {
				return context.Canceled // the merge aborted: teardown owns the outcome
			}
			if !got {
				return err
			}
			if hit && p.Batch != nil {
				served.BatchesProduced++
				served.SentBytes += int64(p.Batch.WireBytes())
			}
			if err := yield(p); err != nil {
				return err
			}
		}
	}
	m.Deposit(idx, u)
	return true
}

// Pieces returns the pieces the log holds now: every piece sent, for a kept
// log.
func (fs *FileScan) Pieces() []Piece {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return slices.Clone(fs.pieces)
}

// MemBytes estimates the resident size of a kept log for cache-budget
// accounting: encoded batch bytes plus what the head and tail rows pin. An
// estimate is sufficient — the cache budget bounds order-of-magnitude
// memory, not exact allocation.
func (fs *FileScan) MemBytes() int64 {
	var total int64
	for _, p := range fs.Pieces() {
		if p.Batch != nil {
			total += int64(p.Batch.WireBytes())
		} else {
			total += p.Rows.MemBytes()
		}
	}
	return total
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
// there. rows, when not negative, is the row count the file is planned at:
// a footer that counts another ends the scan as soon as it is parsed, before
// any stripe is fetched.
//
// All stages charge the reader's Stats, so the scans of a file list, each at
// the carry the files before it leave, and the cutter that joins them do
// together exactly a serial Run's work — Run is that, on one reader.
//
// A file whose k-th stripe is damaged has by then yielded every piece cut
// from the stripes before the damage: the consumer sees the serial stream's
// prefix, then the error. yield's own error ends the scan and is returned as
// it is.
func (r *Reader) Scan(ctx context.Context, file string, carry, rows int, yield func(Piece) error) error {
	src, err := r.open(ctx, file)
	if err != nil {
		return err
	}
	if n := src.file.NumRows(); rows >= 0 && n != rows {
		return fmt.Errorf("reader: %s: the footer counts %d rows, the catalog %d", file, n, rows)
	}
	cut := assembly{batch: r.spec.BatchSize, rows: carry}
	head := carry > 0
	err = src.stripes(ctx, func(stripe *dwrf.Chunk) error {
		return cut.cut(stripe, func(full *dwrf.Chunk) error {
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
	rest, err := cut.take()
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

// ScanFile is Scan into a kept log: the whole scan of the file at carry, or
// the error that ended it after the pieces before it. Its result depends only
// on (file contents, Spec.Fingerprint(), carry), which is what makes sharing
// a scan between sessions sound.
func (r *Reader) ScanFile(ctx context.Context, file string, carry int) (*FileScan, error) {
	fs := NewFileScan(carry, true)
	return fs, fs.Close(r.Scan(ctx, file, carry, -1, fs.Send))
}

// ScanUnit is the unit of a file cut at carry, not yet scanned: reading its
// pieces is what scans the file.
func (r *Reader) ScanUnit(ctx context.Context, file string, carry int) Unit {
	return Unit{File: file, Carry: carry, Pieces: func(yield func(Piece) error) error {
		return r.Scan(ctx, file, carry, -1, yield)
	}}
}
