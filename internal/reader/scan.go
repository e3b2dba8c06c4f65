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
// Carry rows pending. One source writes it — a scan's drain, whichever of a
// pool's workers holds the file's lock, a ScanCache compute, a fleet pump —
// with Send and then Close, and each consumer reads it through
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
// (lakefs.Store.ReadRange's fetch cost model never blocks) would otherwise
// keep it waiting for the runtime's preemption tick, ten milliseconds,
// with the rows of its next batch already decoded.
func (fs *FileScan) Send(p Piece) error {
	fs.mu.Lock()
	if len(fs.pieces) == 0 {
		fs.pieces = fs.few[:0]
	}
	fs.pieces = append(fs.pieces, p)
	readers := fs.readers
	fs.mu.Unlock()
	if !wake(readers) && fs.abandon(readers) {
		return context.Canceled
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

// abandon marks the log abandoned when readers, a snapshot of its readers
// every one of whose merges has aborted, are all it has: a reader that
// arrived since the snapshot reads the log itself. A log nobody follows yet
// is never abandoned. It reports whether the log is.
func (fs *FileScan) abandon(readers []*OrderedMerge[Unit]) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(readers) > 0 && len(fs.readers) == len(readers) {
		fs.abandoned = true
	}
	return fs.abandoned
}

// followed reports whether anyone is left to read the log: false — and the
// log abandoned — once every reader's merge has aborted, which a scan checks
// before it fetches a stripe for nobody. It wakes no reader: a wake with
// nothing to read would leave the reader runnable behind the fetch that
// follows.
func (fs *FileScan) followed() bool {
	fs.mu.Lock()
	readers := fs.readers
	fs.mu.Unlock()
	return slices.ContainsFunc(readers, (*OrderedMerge[Unit]).live) || !fs.abandon(readers)
}

// Close ends the log: after the pieces sent so far, every reader's unit
// returns err. It returns err. A finished log forgets its readers' merges,
// so a cached log keeps no ended session's stream reachable. It yields to
// the scheduler after the wake, for the reason Send does: the closer may go
// on to fetch another file's stripe.
func (fs *FileScan) Close(err error) error {
	fs.mu.Lock()
	fs.done, fs.err = true, err
	readers := fs.readers
	fs.mu.Unlock()
	wake(readers)
	fs.mu.Lock()
	fs.readers, fs.one = nil, [1]*OrderedMerge[Unit]{}
	fs.mu.Unlock()
	runtime.Gosched()
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
// Scan is the drain with one taker: r reads the stripes in order and hands
// each in as it is decoded. A pool's workers share the same drain
// (ScanQueue).
//
// A file whose k-th stripe is damaged has by then yielded every piece cut
// from the stripes before the damage: the consumer sees the serial stream's
// prefix, then the error. yield's own error ends the scan and is returned as
// it is.
func (r *Reader) Scan(ctx context.Context, file string, carry, rows int, yield func(Piece) error) error {
	d, err := r.openDrain(ctx, file, carry, rows, yield)
	if err != nil {
		return err
	}
	for i := range d.stripes() {
		rows, err := r.readStripe(ctx, d.src, i)
		if err := d.hand(r, i, rows, err); err != nil {
			return err
		}
	}
	return d.flush(r)
}

// drain is one opened file's cut: the stripes handed in by whichever readers
// decoded them, in any order, cut in stripe order — by whoever hands in the
// next one, under the file's lock, with that reader: assembly.cut → produce
// → yield — then the tail. A stripe handed in with an error ends the scan
// there once the stripes before it are cut; one handed in after the scan has
// ended — past a damaged stripe, past the cancellation — is dropped, never
// cut.
type drain struct {
	ctx   context.Context
	src   *source
	yield func(Piece) error
	// ended, when set, runs once with the file's lock held, with what ended
	// the scan.
	ended func(error)

	mu    sync.Mutex // the file's lock
	cut   assembly
	head  bool          // the next full run of rows is the head
	ready []*dwrf.Chunk // stripes handed in and not yet cut, by index
	at    int           // the next stripe to cut
	bad   int           // the first stripe handed in with an error, when why is set
	why   error         // that stripe's error
	done  bool
	err   error // what ended the scan, once done
}

// openDrain opens file for a scan entering it with carry rows pending whose
// pieces go to yield, its footer held to rows when that is not negative.
func (r *Reader) openDrain(ctx context.Context, file string, carry, rows int, yield func(Piece) error) (*drain, error) {
	src, err := r.open(ctx, file)
	if err != nil {
		return nil, err
	}
	if n := src.file.NumRows(); rows >= 0 && n != rows {
		return nil, fmt.Errorf("reader: %s: the footer counts %d rows, the catalog %d", file, n, rows)
	}
	n := src.file.NumStripes()
	return &drain{ctx: ctx, src: src, yield: yield, cut: assembly{batch: r.spec.BatchSize, rows: carry},
		head: carry > 0, ready: make([]*dwrf.Chunk, n), bad: n}, nil
}

// stripes is how many stripes the file has.
func (d *drain) stripes() int { return len(d.ready) }

// hand hands in stripe i — its rows, decoded by r, or the error that stopped
// its read; i < 0 hands in nothing — and cuts what is now next in order with
// r. It returns what ended the scan once it has ended, else nil.
func (d *drain) hand(r *Reader, i int, rows *dwrf.Chunk, err error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.done || i < 0:
	case err != nil:
		if i < d.bad {
			d.bad, d.why = i, err
		}
	default:
		d.ready[i] = rows
	}
	for !d.done {
		switch {
		case d.why != nil && d.at == d.bad:
			d.end(d.why)
		case d.at == len(d.ready):
			d.end(d.finish())
		case d.ready[d.at] != nil:
			stripe := d.ready[d.at]
			d.ready[d.at] = nil
			d.at++
			if err := d.cutStripe(r, stripe); err != nil {
				d.end(err)
			}
		default:
			return nil
		}
	}
	return d.err
}

// flush cuts with r what is next in order — the whole of a file with no
// stripes — and returns what ended the scan once it has ended, else nil.
func (d *drain) flush(r *Reader) error { return d.hand(r, -1, nil, nil) }

// cutStripe passes a stripe's rows on as pieces, converting the batches it
// completes with r.
func (d *drain) cutStripe(r *Reader, stripe *dwrf.Chunk) error {
	return d.cut.cut(stripe, func(full *dwrf.Chunk) error {
		if d.head {
			d.head = false
			return d.yield(Piece{Rows: full})
		}
		return r.produce(d.ctx, full, func(b *Batch) error { return d.yield(Piece{Batch: b}) })
	})
}

// finish yields what is left once every stripe is cut: the head, if the file
// ended inside the straddling batch, and the tail.
func (d *drain) finish() error {
	rest, err := d.cut.take()
	if err != nil {
		return err
	}
	if rest == nil {
		rest = d.src.noRows()
	}
	if d.head {
		if err := d.yield(Piece{Rows: rest}); err != nil {
			return err
		}
		rest = d.src.noRows()
	}
	return d.yield(Piece{Rows: rest})
}

// end ends the scan with err — the scan's cancellation, when it has one —
// and drops the stripes still waiting to be cut.
func (d *drain) end(err error) {
	if err != nil && d.ctx.Err() != nil {
		err = d.ctx.Err()
	}
	d.done, d.err = true, err
	clear(d.ready)
	if d.ended != nil {
		d.ended(err)
	}
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
