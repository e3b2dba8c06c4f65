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
// claim file indices in scan order, scan them in parallel, and deposit each
// file's Unit — a reader of the file's log (FileScan), its pieces following
// one by one as the worker cuts them — and a single
// assembler awaits the units strictly in file-index order, so the
// reassembled stream is byte-identical to one serial scan over the whole
// file list no matter how many workers scan it — or how often that worker
// count changes mid-scan.
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
// its methods. ScanQueue binds it to a plan: Claim hands out the planned
// file with the index, Extend appends planned files with the slots.
//
// All methods are safe for concurrent use.
type ScanQueue struct {
	*OrderedMerge[Unit]
	fmu  sync.RWMutex // guards plan, which grows under Extend
	plan []Planned
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

// Claim is one planned file a worker has claimed and must fill (claims are
// never reassigned, so an abandoned claim would wedge the assembler): its
// unit is always a reader of the file's log.
type Claim struct {
	Index int
	Planned
	q *ScanQueue
}

// Claim hands the caller the next unclaimed file, blocking while the
// claim window is full. ok is false once the scan set is exhausted or the
// queue is aborted.
func (q *ScanQueue) Claim() (c Claim, ok bool) {
	idx, ok := q.OrderedMerge.Claim()
	if !ok {
		return Claim{}, false
	}
	q.fmu.RLock() // Extend grows the slice concurrently
	defer q.fmu.RUnlock()
	return Claim{Index: idx, Planned: q.plan[idx], q: q}, true
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

// Fill fills one claimed file into the queue. It deposits the file's unit
// exactly once, before it scans anything — an abandoned claim would wedge
// the assembler — and returns the error that ended the file, which travels
// to the assembler at the end of the unit's pieces, to surface in file
// order. ScanFill builds the one the pools run.
type Fill func(ctx context.Context, c Claim) error

// Memo is a cache of scans in front of a fill (dpp's ScanCache): it returns
// the log of file's scan at carry, running scan into a fresh kept log — at
// most once among everyone asking — when it holds none. hit says this call
// did not run scan.
type Memo func(ctx context.Context, file string, carry int, scan func(context.Context, *FileScan) error) (fs *FileScan, hit bool, err error)

// ScanFill is the fill of every pool: the claimed file's Scan by r, cut for
// the rows the plan carries into it, its footer held to the plan's row count
// the moment it is parsed — a file the catalog miscounts ends the stream
// there, before any of its rows is cut — into a log whose reader is the
// file's unit, deposited before the scan starts: each piece reaches the
// assembler as the scan cuts it, and the error that ends the scan after the
// pieces before it.
//
// With a memo the scan is the memo's compute, into the log the memo keeps,
// and every lookup deposits a reader of that log alike — the one that
// computes it, one coalesced onto that compute while it runs, a later hit:
// each is served every piece cut so far at once and the rest as they are
// cut. A lookup whose log was abandoned by its last reader as it arrived
// asks again: that compute is leaving the memo, and the next ask computes.
// A lookup cancelled before its log exists deposits nothing; its queue is
// aborting.
func (r *Reader) ScanFill(memo Memo) Fill {
	return func(ctx context.Context, c Claim) error {
		scan := func(ctx context.Context, fs *FileScan) error {
			c.follow(fs, false)
			return fs.Close(r.Scan(ctx, c.File, c.Carry, c.Rows, fs.Send))
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

// FillQueue runs one worker over the queue — the one claim → fill loop every
// pool runs: until the scan set is exhausted, the queue aborts, fill fails
// (the worker exits), or stop returns true — the resizable pool's
// between-files scale-down checkpoint, checked before the claim so a stop
// never abandons one. A nil stop never stops.
//
// A worker claims its next file only after the last piece of this one: the
// pool's size still bounds the files being filled, the window the files
// decoded and not yet merged, and the assembler is cutting a file's first
// batch while the worker is fetching its third stripe.
//
// A fill charges the Stats of the reader it closes over; a pool sums its
// workers' readers to recover exactly the counters one serial scan would
// report, because every file is claimed exactly once.
func FillQueue(ctx context.Context, q *ScanQueue, fill Fill, stop func() bool) {
	for {
		if stop != nil && stop() {
			return
		}
		c, ok := q.Claim()
		if !ok || fill(ctx, c) != nil {
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
