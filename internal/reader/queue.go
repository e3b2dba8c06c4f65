package reader

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/dwrf"
)

// ScanQueue is the shared ordered work queue behind every reader pool (a
// dpp session of either kind, shared or not, resizable or fixed; Run with
// FillAhead): workers claim file indices in scan order, fill them in
// parallel, and deposit each file's Unit — at once, when the unit is a
// stream of stripes the worker goes on to read and hand over one by one
// (FillQueue) — and a single assembler awaits the units strictly in
// file-index order, so the reassembled stream is byte-identical to one
// serial scan over the whole file list no matter how many workers fill it —
// or how often that worker count changes mid-scan.
//
// Claims are bounded by a sliding window over the assembler's position:
// a file index may be claimed only while it is within `window` of the
// next index the assembler will consume. That caps the files decoded, or
// being decoded, and not yet merged (the queue's memory bound: the window
// counts files, though rows move through it by the stripe) and is what
// transmits consumer backpressure to the fill workers. The window resizes
// with the worker pool.
//
// The claim/deposit/await-in-order machinery itself is the embedded
// OrderedMerge, shared with the fleet multiplexer (dppshard): Deposit,
// Await and Wait (whose blocked time is Stall, the worker-starvation signal
// autoscaling consumes), Update, SetWindow, Abort, Finish, Len and Pos are
// its methods. ScanQueue binds it to a file list: Claim hands out the path
// with the index, Extend appends paths with the slots.
//
// All methods are safe for concurrent use.
type ScanQueue struct {
	*OrderedMerge[Unit]
	fmu   sync.RWMutex // guards files, which grows under Extend
	files []string
}

// NewScanQueue builds a queue over files with the given claim window
// (clamped to at least 1). A nil now falls back to time.Now; it stamps
// blocking intervals for the worker-starvation counter, injectable so
// controller tests can run on a manual clock.
func NewScanQueue(files []string, window int, now func() time.Time) *ScanQueue {
	return &ScanQueue{files: files, OrderedMerge: NewOrderedMerge[Unit](len(files), window, now)}
}

// NewOpenScanQueue builds an open-ended queue over an initial file
// prefix: workers and the assembler park at the end of the known files
// instead of finishing, until Extend appends newly landed files or
// Finish declares the scan set complete. This is the queue shape of a
// Follow session tailing a live partition.
func NewOpenScanQueue(files []string, window int, now func() time.Time) *ScanQueue {
	return &ScanQueue{files: files, OrderedMerge: NewOpenOrderedMerge[Unit](len(files), window, now)}
}

// Extend appends newly landed files to an open queue, waking workers and
// the assembler parked at the old end. Returns the new scan-set size.
func (q *ScanQueue) Extend(files []string) int {
	if len(files) == 0 {
		return q.Len()
	}
	q.fmu.Lock()
	q.files = append(q.files, files...)
	q.fmu.Unlock()
	return q.OrderedMerge.Extend(len(files))
}

// Claim is one file a worker has claimed and must fill and Deposit
// (claims are never reassigned, so an abandoned claim would wedge the
// assembler).
type Claim struct {
	Index int
	File  string
	q     *ScanQueue
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
	return Claim{Index: idx, File: q.files[idx], q: q}, true
}

// Carry returns how many rows a scan cutting batch-row batches carries
// into this file: (the rows of every earlier file) mod batch. It blocks
// until the workers holding those files have Reported — claims are issued
// in index order, so each is held or already done — and ok is false when
// the queue aborts first. Only a fill whose output depends on the carry
// (a batch cut at an offset, to be shared) calls it; nothing else ever
// waits on the chain.
func (c Claim) Carry(batch int) (rows int, ok bool) {
	total, ok := c.q.RowsBefore(c.Index)
	return total % batch, ok
}

// Report publishes this file's row count the moment it is known — from
// the footer, before any stripe is fetched — so the next file's worker
// leaves Carry while this one is still filling. Idempotent.
func (c Claim) Report(rows int) { c.q.ReportRows(c.Index, rows) }

// Fill turns one claimed file into its Unit: the only piece of a queue
// worker that differs between the kinds of scan. FillUnit (the file opened,
// its stripes still to be read; the cutter converts) and ScanUnit (the file
// cut at carry 0) are the reader's own; dpp's ScanCache memo is the third. A
// failure travels as Unit.Err, or at the end of Unit.Stripes, for the
// assembler to surface in file order.
type Fill func(ctx context.Context, c Claim) Unit

// FillQueue runs one worker over the queue — the one claim → fill →
// deposit loop every pool runs: until the scan set is exhausted, the queue
// aborts, fill fails (the worker deposits the error and exits; teardown's
// abort releases any successor parked on the carry chain), or stop returns
// true — the resizable pool's between-files scale-down checkpoint, checked
// before the claim so a stop never abandons one. A nil stop never stops.
//
// A unit that is still a stream of stripes is deposited at once — all that
// has been read of its file is the footer — and the worker then reads the
// stripes itself, handing each to the assembler as it is decoded, and
// claims its next file only after the last: the pool's size still bounds
// the files being filled, the window the files decoded and not yet merged,
// and the assembler is cutting a file's first batch while the worker is
// fetching its third stripe.
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
		if !ok {
			return
		}
		u := fill(ctx, c)
		err := u.Err
		if read := u.Stripes; read != nil && err == nil {
			h := &handoff{q: q}
			u.Stripes = h.receive
			q.Deposit(c.Index, u)
			err = read(h.send)
			h.close(err)
		} else {
			q.Deposit(c.Index, u)
		}
		if err != nil {
			return
		}
	}
}

// handoff carries one file's stripes from the worker reading them to the
// assembler cutting them, in order, under the queue's own lock. The worker
// never waits for the assembler — it may run a whole file ahead, which is
// what the claim window already budgets for — and the assembler's wait for
// the next stripe is the queue's Wait: worker starvation, counted in Stall
// beside the wait for a deposit.
type handoff struct {
	q       *ScanQueue
	stripes []*dwrf.Chunk // sent and not yet received
	done    bool
	err     error // what ended the read, once done
}

// send is the worker's yield. After a cancellation or the assembler's own
// exit nobody will receive, and the read is told to stop. The yield to the
// scheduler lets an assembler this stripe made runnable have a CPU now: a
// pool that saturates every CPU with fetch work (simulateFetchWork never
// blocks) would otherwise keep it waiting for the runtime's preemption
// tick, ten milliseconds, with the rows of its next batch already decoded.
func (h *handoff) send(stripe *dwrf.Chunk) error {
	if !h.q.Update(func() { h.stripes = append(h.stripes, stripe) }) {
		return context.Canceled
	}
	runtime.Gosched()
	return nil
}

// close ends the stream: after the stripes sent so far, receive returns err.
func (h *handoff) close(err error) {
	h.q.Update(func() { h.done, h.err = true, err })
}

// receive is the deposited unit's Stripes.
func (h *handoff) receive(yield func(*dwrf.Chunk) error) error {
	for {
		var stripe *dwrf.Chunk
		ok := h.q.Wait(func() bool {
			if len(h.stripes) > 0 {
				stripe, h.stripes[0] = h.stripes[0], nil
				h.stripes = h.stripes[1:]
				return true
			}
			return h.done
		})
		if !ok {
			return context.Canceled // the queue aborted: teardown owns the outcome
		}
		if stripe == nil {
			return h.err
		}
		if err := yield(stripe); err != nil {
			return err
		}
	}
}

// RunQueue is the assembler half of a queued scan: it consumes deposited
// units in index order — a unit still being filled, stripe by stripe as its
// worker hands them over — and cuts, converts, and processes batches exactly
// as a serial Run over q's whole file list would — same batch boundaries,
// same bytes, same deterministic counters (convert/process work charges
// this reader; fill work lives in the workers' readers). Returns ctx.Err
// when the queue aborts under a cancelled context.
func (r *Reader) RunQueue(ctx context.Context, q *ScanQueue, emit func(*Batch) error) error {
	i := 0
	return r.RunUnits(ctx, func() (Unit, bool) {
		u, ok := q.Await(i)
		i++
		return u, ok
	}, emit)
}
