package reader

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/storage"
)

// ScanQueue is the shared ordered work queue behind every reader pool (a
// dpp session of either kind, shared or not, resizable or fixed): workers
// claim file indices in scan order, scan them in parallel, and deposit each
// file's Unit — as soon as the file is open, its pieces following one by one
// through a hand-off (Handoff) as the worker cuts them — and a single
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

// Claim is one planned file a worker has claimed and must fill and Deposit
// (claims are never reassigned, so an abandoned claim would wedge the
// assembler).
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

// Deposit publishes the claimed file's unit whole: the error that ends the
// stream at this file, or a unit whose pieces all exist already (a cached
// scan).
func (c Claim) Deposit(u Unit) { c.q.Deposit(c.Index, u) }

// HandOff deposits the claimed file's unit now, its pieces to follow through
// the returned hand-off.
func (c Claim) HandOff(u Unit) *Handoff { return NewHandoff(c.q.OrderedMerge, c.Index, u) }

// Fill fills one claimed file into the queue. It deposits the file's unit
// exactly once (Claim.Deposit, or Claim.HandOff and the pieces after it) — an
// abandoned claim would wedge the assembler — and returns the error that
// ended the file, which travels to the assembler in the deposit, or at the
// end of the hand-off, to surface in file order. ScanFill builds the one the
// pools run.
type Fill func(ctx context.Context, c Claim) error

// Memo is a cache of finished scans in front of a fill (dpp's ScanCache): it
// returns the scan of file at carry, running compute — at most once among
// everyone asking — when it does not hold it. hit says this call did not run
// compute.
type Memo func(ctx context.Context, file string, carry int, compute func(context.Context) (*FileScan, error)) (fs *FileScan, hit bool, err error)

// ScanFill is the fill of every pool: the claimed file's Scan by r, cut for
// the rows the plan carries into it, its footer held to the plan's row count
// the moment it is parsed — a file the catalog miscounts ends the stream
// there, before any of its rows is cut. The unit is deposited as soon as the
// file is open and each piece follows through the hand-off as the scan cuts
// it.
//
// With a memo the same scan is its compute: the pieces stream to this queue
// from inside it, the memo keeps the collected FileScan, and a lookup that
// did not compute — a hit, or one coalesced onto another's compute — deposits
// the finished scan whole.
func (r *Reader) ScanFill(memo Memo) Fill {
	return func(ctx context.Context, c Claim) error {
		var streamed *Handoff
		opened := func(rows int) error {
			if rows != c.Rows {
				return fmt.Errorf("reader: %s: the footer counts %d rows, the catalog %d", c.File, rows, c.Rows)
			}
			streamed = c.HandOff(Unit{File: c.File, Carry: c.Carry})
			// The deposit wakes the assembler — onto this worker's P, behind a
			// scan that computes for milliseconds before its first Send — so
			// yield here for the reason Send does: it would otherwise sit there
			// while another worker's first batch waits to be emitted.
			runtime.Gosched()
			return nil
		}
		send := func(p Piece) error { return streamed.Send(p) }
		var fs *FileScan
		var hit bool
		var err error
		if memo == nil {
			err = r.Scan(ctx, c.File, c.Carry, opened, send)
		} else {
			fs, hit, err = memo(ctx, c.File, c.Carry, func(ctx context.Context) (*FileScan, error) {
				return r.ScanFile(ctx, c.File, c.Carry, opened, send)
			})
		}
		switch {
		case streamed != nil:
			streamed.Close(err)
		case err != nil:
			c.Deposit(Unit{File: c.File, Err: err})
		default:
			c.Deposit(fs.Unit(c.File, hit))
		}
		return err
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

// Handoff carries one file's pieces from whoever produces them — a queue
// worker cutting a scan, a fleet pump reading a shard's frames — to the
// assembler consuming the file's unit, in order, under the merge's own lock.
// The producer never waits for the assembler — it may run a whole file ahead,
// which is what the merge's window already budgets for, so a producer inside
// a cache's single-flight compute never waits on its own session's consumer —
// and the assembler's wait for the next piece is the merge's Wait: producer
// starvation, counted in Stall beside the wait for a deposit.
type Handoff struct {
	m      *OrderedMerge[Unit]
	pieces []Piece // sent and not yet received
	// few holds pieces while no more than its length are waiting — always,
	// when the assembler keeps up — so that a file's hand-off is one
	// allocation, not one and a slice's growth.
	few  [4]Piece
	done bool
	err  error // what ended the file, once done
	sent int   // the producer's count of pieces sent
}

// NewHandoff deposits u at slot idx of m as a unit whose pieces are the ones
// sent through the returned hand-off, until its Close.
func NewHandoff(m *OrderedMerge[Unit], idx int, u Unit) *Handoff {
	h := &Handoff{m: m}
	u.Pieces = h.receive
	m.Deposit(idx, u)
	return h
}

// Send hands the assembler the file's next piece. After a cancellation or
// the assembler's own exit nobody will receive, and the producer is told to
// stop. The yield to the scheduler lets an assembler this piece made runnable
// have a CPU now: a pool that saturates every CPU with fetch work
// (simulateFetchWork never blocks) would otherwise keep it waiting for the
// runtime's preemption tick, ten milliseconds, with the rows of its next
// batch already decoded.
func (h *Handoff) Send(p Piece) error {
	if !h.m.Update(func() {
		if len(h.pieces) == 0 {
			h.pieces = h.few[:0]
		}
		h.pieces = append(h.pieces, p)
	}) {
		return context.Canceled
	}
	h.sent++
	runtime.Gosched()
	return nil
}

// Sent is how many pieces have gone into the hand-off: what a producer that
// takes the file over from another — a fleet pump from a dead shard's — has
// to skip of its own to continue it. It is the producer's own count, not
// synchronized: a hand-off has one producer at a time, and one that takes
// over does so after the last has stopped.
func (h *Handoff) Sent() int { return h.sent }

// Close ends the file: after the pieces sent so far, the unit's Pieces
// returns err.
func (h *Handoff) Close(err error) {
	h.m.Update(func() { h.done, h.err = true, err })
}

// receive is the deposited unit's Pieces.
func (h *Handoff) receive(yield func(Piece) error) error {
	for {
		var p Piece
		got := false
		ok := h.m.Wait(func() bool {
			if len(h.pieces) > 0 {
				p, got = h.pieces[0], true
				h.pieces[0] = Piece{}
				h.pieces = h.pieces[1:]
				return true
			}
			return h.done
		})
		if !ok {
			return context.Canceled // the merge aborted: teardown owns the outcome
		}
		if !got {
			return h.err
		}
		if err := yield(p); err != nil {
			return err
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
