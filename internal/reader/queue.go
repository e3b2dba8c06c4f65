package reader

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/storage"
)

// ScanQueue is the shared ordered work queue behind every reader pool (a
// dpp session of either kind, shared or not, resizable or fixed): workers
// claim file indices in scan order and deposit each file's Unit — a reader
// of the file's log (FileScan), its pieces following one by one as they are
// cut — and a single assembler awaits the units strictly in file-index
// order, so the reassembled stream is byte-identical to one serial scan over
// the whole file list no matter how many workers scan it — or how often that
// worker count changes mid-scan.
//
// The unit of work is the stripe, not the file. The queue keeps the files it
// has handed out whose stripes are not all taken, in claim order, and a
// worker takes the earliest stripe among them before it claims another file:
// every worker of the pool is on the file the stream needs next. Whoever
// claims a file opens it; the others wait for the footer rather than claim
// past it, so files are opened in claim order and, at a session's start,
// the second worker takes stripe 1 of file 0, not file 1. A stripe is
// fetched and decoded by the worker that took it, with its own reader, and
// handed in to the file's drain, which cuts the file in stripe order.
//
// Claims are bounded by a sliding window over the assembler's position:
// a file index may be claimed only while it is within `window` of the
// next index the assembler will consume. That caps the files decoded, or
// being decoded, and not yet merged (the queue's memory bound: the window
// counts files, though rows move through it by the piece) and is what
// transmits consumer backpressure to the fill workers. The window resizes
// with the worker pool.
//
// The claim/deposit/await-in-order machinery itself is the embedded
// OrderedMerge, shared with the fleet multiplexer (dppshard): Deposit,
// Await and Wait (whose blocked time is Stall, the worker-starvation signal
// autoscaling consumes), Update, SetWindow, Abort, Finish, Len and Pos are
// its methods. ScanQueue binds it to a plan: a claim hands out the planned
// file with the index, Extend appends planned files with the slots.
//
// All methods are safe for concurrent use.
type ScanQueue struct {
	*OrderedMerge[Unit]
	fmu  sync.RWMutex // guards plan, which grows under Extend
	plan []Planned
	// open are the claimed files whose stripes are not all taken, in claim
	// order; guarded by the merge's lock.
	open []*cursor
	// served is the consumer's: charged as it reads cache-served units.
	served Stats
}

// Planned is one file of a scan plan: its path, its row count as the
// catalog recorded it — the fill holds the footer to it — and Carry, the
// rows a scan cutting batch-row batches carries into it: those of every
// earlier file of the whole plan, mod batch. Every cut is arithmetic over
// row counts known before anything is fetched, so no worker waits on
// another to learn where its batches fall.
type Planned struct {
	File        string
	Rows, Carry int
}

// Plan lays files out for a scan cutting batch-row batches that carries
// carry rows into the first of them, and returns the rows it carries out
// of the last: where a growing plan continues.
func Plan(batch, carry int, files []storage.PublishedFile) (plan []Planned, after int) {
	plan = make([]Planned, len(files))
	for i, f := range files {
		plan[i] = Planned{File: f.Path, Rows: f.Rows, Carry: carry}
		carry = (carry + f.Rows) % batch
	}
	return plan, carry
}

// NewScanQueue builds a queue over plan with the given claim window
// (clamped to at least 1). A nil now falls back to time.Now; it stamps
// blocking intervals for the worker-starvation counter, injectable so
// controller tests can run on a manual clock.
func NewScanQueue(plan []Planned, window int, now func() time.Time) *ScanQueue {
	return &ScanQueue{plan: plan, OrderedMerge: NewOrderedMerge[Unit](len(plan), window, now)}
}

// NewOpenScanQueue builds an open-ended queue over an initial plan
// prefix: workers and the assembler park at the end of the known files
// instead of finishing, until Extend appends newly landed files or
// Finish declares the scan set complete. This is the queue shape of a
// Follow session tailing a live partition.
func NewOpenScanQueue(plan []Planned, window int, now func() time.Time) *ScanQueue {
	return &ScanQueue{plan: plan, OrderedMerge: NewOpenOrderedMerge[Unit](len(plan), window, now)}
}

// Extend appends newly landed files, planned on from the queue's last, to
// an open queue, waking workers and the assembler parked at the old end.
// Returns the new scan-set size.
func (q *ScanQueue) Extend(plan []Planned) int {
	if len(plan) == 0 {
		return q.Len()
	}
	q.fmu.Lock()
	q.plan = append(q.plan, plan...)
	q.fmu.Unlock()
	return q.OrderedMerge.Extend(len(plan))
}

// Claim is a worker's next piece of work: one planned file it has claimed
// and must fill (claims are never reassigned, so an abandoned claim would
// wedge the assembler) — its unit is always a reader of the file's log — or
// one stripe of a file the pool has open, which it must hand in.
type Claim struct {
	Index int
	Planned
	q   *ScanQueue
	cur *cursor
	// stripe is the stripe of cur's file the claim takes; -1 is the file.
	stripe int
}

// cursor is a claimed file's stripes as the pool hands them out. Its fields
// are guarded by the merge's lock.
type cursor struct {
	index   int
	planned Planned
	d       *drain // nil while the file is being opened
	log     *FileScan
	n       int   // the file's stripes
	next    int   // the next stripe to hand out
	back    []int // stripes handed back untouched, to hand out again
	// ended: there is no stripe left to hand out — the scan has ended, or
	// the file was never opened here.
	ended bool
}

func (c *cursor) opening() bool { return c.d == nil && !c.ended }

// spent reports a cursor with no stripe left to hand out, ever.
func (c *cursor) spent() bool { return c.ended || c.d != nil && c.next == c.n && len(c.back) == 0 }

// take hands out the cursor's next stripe; -1 when it has none to.
func (c *cursor) take() int {
	switch {
	case c.d == nil || c.ended:
	case len(c.back) > 0:
		i := c.back[len(c.back)-1]
		c.back = c.back[:len(c.back)-1]
		return i
	case c.next < c.n:
		c.next++
		return c.next - 1
	}
	return -1
}

// earliest takes the first stripe to hand out among the open files, in
// claim order: nil, with wait, when a file ahead of any such stripe is still
// being opened. It forgets the files with no stripe left.
func (q *ScanQueue) earliest() (cur *cursor, i int, wait bool) {
	open := q.open[:0]
	for _, c := range q.open {
		if cur == nil && !wait {
			if i = c.take(); i >= 0 {
				cur = c
			}
			wait = c.opening()
		}
		if !c.spent() {
			open = append(open, c)
		}
	}
	clear(q.open[len(open):])
	q.open = open
	return cur, i, wait
}

// claim hands the caller its next piece of work: the earliest stripe of the
// open files, else — once no file ahead is still being opened — the next
// unclaimed file, blocking while the claim window is full. ok is false once
// the scan set is exhausted or the queue is aborted. A file claim must be
// settled once it is filled.
func (q *ScanQueue) claim() (c Claim, ok bool) {
	_, ok = q.OrderedMerge.claim(func() (took, wait bool) {
		cur, i, wait := q.earliest()
		if cur != nil {
			c = Claim{Index: cur.index, Planned: cur.planned, q: q, cur: cur, stripe: i}
		}
		return cur != nil, wait
	}, func(idx int) {
		q.fmu.RLock() // Extend grows the slice concurrently
		p := q.plan[idx]
		q.fmu.RUnlock()
		cur := &cursor{index: idx, planned: p}
		q.open = append(q.open, cur)
		c = Claim{Index: idx, Planned: p, q: q, cur: cur, stripe: -1}
	})
	return c, ok
}

// settle ends a file claim whose fill opened nothing here — a cache served
// it, or it failed first — so that nobody waits for its stripes.
func (q *ScanQueue) settle(c Claim) {
	if c.stripe < 0 {
		q.note(func() { c.cur.ended = c.cur.ended || c.cur.d == nil })
	}
}

// follow deposits the claimed file's unit: a reader of fs, a cache's when
// hit, whose batches' egress the queue's consumer is then charged as it
// reads them (Served). The deposit wakes the consumer — onto this worker's
// P, behind a scan that computes for milliseconds before its first Send — so
// it yields here for the reason Send does: the consumer would otherwise sit
// there while another worker's first batch waits to be emitted.
func (c Claim) follow(fs *FileScan, hit bool) bool {
	ok := fs.Follow(c.q.OrderedMerge, c.Index, Unit{File: c.File, Hit: hit}, &c.q.served)
	runtime.Gosched()
	return ok
}

// Served is the egress of the cache-served units the queue's consumer has
// read: the batches it shipped that no worker of its own produced. Only
// that consumer may call it, once it is done reading.
func (q *ScanQueue) Served() Stats { return q.served }

// Fill does one claim's work. For a file it deposits the file's unit exactly
// once, before it scans anything — an abandoned claim would wedge the
// assembler — and opens the file for the pool's workers to take its stripes;
// for a stripe it fetches, decodes and hands it in. It returns what ended
// the file, if it has ended in an error — which travels to the assembler at
// the end of the unit's pieces, to surface in file order. ScanFill builds
// the one the pools run.
type Fill func(ctx context.Context, c Claim) error

// Memo is a cache of scans in front of a fill (dpp's ScanCache): it returns
// the log of file's scan at carry, running scan into a fresh kept log — at
// most once among everyone asking — when it holds none. hit says this call
// did not run scan.
type Memo func(ctx context.Context, file string, carry int, scan func(context.Context, *FileScan) error) (fs *FileScan, hit bool, err error)

// ScanFill is the fill of every pool, with r as the worker's reader. A file
// claim opens the file, its footer held to the plan's row count the moment
// it is parsed — a file the catalog miscounts ends the stream there, before
// any of its rows is cut — for a scan cut for the rows the plan carries into
// it, into a log whose reader is the file's unit, deposited before the file
// is opened: each piece reaches the assembler as it is cut, and the error
// that ends the scan after the pieces before it. Its stripes are the pool's
// to take (ScanQueue), the claimer's first among them. A stripe claim is r's
// read of the stripe, handed in to the file's drain (take).
//
// With a memo the file's scan is the memo's compute, into the log the memo
// keeps, and every lookup deposits a reader of that log alike — the one that
// computes it, one coalesced onto that compute while it runs, a later hit:
// each is served every piece cut so far at once and the rest as they are
// cut. The compute returns once the file's last stripe is cut (finish), so
// the memo holds a complete log. A lookup whose log was abandoned by its last
// reader as it arrived asks again: that compute is leaving the memo, and the
// next ask computes. A lookup cancelled before its log exists deposits
// nothing; its queue is aborting.
func (r *Reader) ScanFill(memo Memo) Fill {
	return func(ctx context.Context, c Claim) error {
		if c.stripe >= 0 {
			return c.q.take(ctx, r, c.cur, c.stripe)
		}
		scan := func(sctx context.Context, fs *FileScan) error {
			c.follow(fs, false)
			if err := c.q.openFile(sctx, r, c.cur, fs); err != nil || memo == nil {
				return err
			}
			return c.q.finish(ctx, r, c.cur)
		}
		if memo == nil {
			return scan(ctx, NewFileScan(c.Carry, false))
		}
		for {
			fs, hit, err := memo(ctx, c.File, c.Carry, scan)
			if err != nil || !hit || c.follow(fs, true) {
				return err
			}
		}
	}
}

// openFile opens the claimed file of cur for a scan at ctx into fs, with r,
// and hands its stripes to the pool: the scan closes fs when it ends. A
// file that fails to open closes fs with the error.
func (q *ScanQueue) openFile(ctx context.Context, r *Reader, cur *cursor, fs *FileScan) error {
	d, err := r.openDrain(ctx, cur.planned.File, cur.planned.Carry, cur.planned.Rows, fs.Send)
	if err != nil {
		return fs.Close(err) // settle ends the cursor
	}
	d.ended = func(err error) {
		fs.Close(err)
		q.note(func() { cur.ended = true })
	}
	q.note(func() { cur.d, cur.log, cur.n = d, fs, d.stripes() })
	return d.flush(r)
}

// take reads stripe i of cur's file with r, charging r, and hands it in.
// Whoever takes a stripe hands it in — its rows, or what ended the scan
// before them: the scan's cancellation, or a log nobody is left to read, for
// which nothing is fetched. A taker whose own ctx is done while the scan's
// is not — a worker of a session that has stopped waiting for a ScanCache
// compute it was helping — fetches nothing either, and hands the stripe back
// for the compute's own worker (finish).
func (q *ScanQueue) take(ctx context.Context, r *Reader, cur *cursor, i int) error {
	d := cur.d
	switch {
	case ctx.Err() != nil && d.ctx.Err() == nil:
		q.note(func() { cur.back = append(cur.back, i) })
		return ctx.Err()
	case !cur.log.followed():
		return d.hand(r, i, nil, context.Canceled)
	}
	// Once the stripe is handed in, yield: a goroutine left runnable on this
	// P — the cutter, pushed off the P's next slot by a GC worker or another
	// wake — would otherwise wait out the next fetch, which never blocks, up
	// to the runtime's 10 ms preemption tick.
	defer runtime.Gosched()
	rows, err := r.readStripe(d.ctx, d.src, i) // nothing fetched once the scan is cancelled
	return d.hand(r, i, rows, err)
}

// finish is a ScanCache compute's part in its pool, run by the worker that
// claimed and opened own's file: until the file's last stripe is cut it
// takes the file's next stripe — the compute outlives its session, so
// whatever the session does — and, while its session runs, helps the files
// the pool has open with their earliest stripe. It claims no file. It
// returns what ended the scan.
func (q *ScanQueue) finish(ctx context.Context, r *Reader, own *cursor) error {
	for {
		var cur *cursor
		var i int
		q.park(func() bool {
			if own.ended {
				return true
			}
			if i = own.take(); i >= 0 {
				cur = own
			} else if !q.aborted && ctx.Err() == nil {
				cur, i, _ = q.earliest()
			}
			return cur != nil
		})
		if cur == nil {
			return own.d.flush(r) // the scan has ended: what ended it
		}
		if cur == own {
			q.take(own.d.ctx, r, own, i)
		} else {
			q.take(ctx, r, cur, i)
		}
	}
}

// FillQueue runs one worker over the queue — the one claim → fill loop every
// pool runs: until the scan set is exhausted, the queue aborts, fill fails
// (the worker exits), or stop returns true — the resizable pool's scale-down
// checkpoint, checked before each claim, between stripes, so a stop never
// abandons one. A nil stop never stops.
//
// A worker takes the earliest stripe of the files the pool has open and
// claims a file only when none is left, so the pool's size bounds the
// stripes being read, the window the files decoded and not yet merged, and
// every worker is on the file the assembler is cutting whenever it has a
// stripe left to read.
//
// Each claim charges the Stats of the reader its fill closes over; a pool
// sums its workers' readers to recover exactly the counters one serial scan
// would report, because every file is claimed, and every stripe taken,
// exactly once.
func FillQueue(ctx context.Context, q *ScanQueue, fill Fill, stop func() bool) {
	for {
		if stop != nil && stop() {
			return
		}
		c, ok := q.claim()
		if !ok {
			return
		}
		err := fill(ctx, c)
		q.settle(c)
		if err != nil {
			return
		}
	}
}

// RunQueue is the assembler half of a queued scan: it consumes deposited
// units in index order — a unit still being scanned, piece by piece as its
// worker hands them over — and emits exactly the stream of a serial Run over
// q's whole file list — same batch boundaries, same bytes, same deterministic
// counters (the batches that straddle files and the final short one charge
// this reader; the rest of the work lives in the workers' readers). Returns
// ctx.Err when the queue aborts under a cancelled context.
func (r *Reader) RunQueue(ctx context.Context, q *ScanQueue, emit func(*Batch) error) error {
	i := 0
	return r.RunUnits(ctx, func() (Unit, bool) {
		u, ok := q.Await(i)
		i++
		return u, ok
	}, emit)
}
