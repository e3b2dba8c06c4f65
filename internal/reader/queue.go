package reader

import (
	"context"
	"sync"
	"time"

	"repro/internal/dwrf"
)

// ScanQueue is the shared ordered work queue behind a resizable reader
// pool (dpp session autoscaling): workers claim file indices in scan
// order, fill them in parallel, and deposit the decoded rows; a single
// assembler awaits the results strictly in file-index order, so the
// reassembled stream is byte-identical to one serial scan over the whole
// file list no matter how many workers fill it — or how often that
// worker count changes mid-scan.
//
// Claims are bounded by a sliding window over the assembler's position:
// a file index may be claimed only while it is within `window` of the
// next index the assembler will consume. That caps decoded-but-unmerged
// files (the queue's memory bound) and is what transmits consumer
// backpressure to the fill workers. The window resizes with the worker
// pool.
//
// The claim/deposit/await-in-order machinery itself is OrderedMerge,
// shared with the fleet multiplexer (dppshard); ScanQueue binds it to a
// file list and FileResult.
//
// All methods are safe for concurrent use.
type ScanQueue struct {
	fmu   sync.RWMutex // guards files, which grows under Extend
	files []string
	m     *OrderedMerge[FileResult]
}

// FileResult is one filled file handed from a claiming worker to the
// assembler: the decoded column chunk, or the fill error.
type FileResult struct {
	Chunk *dwrf.Chunk
	Err   error
}

// NewScanQueue builds a queue over files with the given claim window
// (clamped to at least 1). A nil now falls back to time.Now; it stamps
// blocking intervals for the worker-starvation counter, injectable so
// controller tests can run on a manual clock.
func NewScanQueue(files []string, window int, now func() time.Time) *ScanQueue {
	return &ScanQueue{files: files, m: NewOrderedMerge[FileResult](len(files), window, now)}
}

// NewOpenScanQueue builds an open-ended queue over an initial file
// prefix: workers and the assembler park at the end of the known files
// instead of finishing, until Extend appends newly landed files or
// Finish declares the scan set complete. This is the queue shape of a
// Follow session tailing a live partition.
func NewOpenScanQueue(files []string, window int, now func() time.Time) *ScanQueue {
	return &ScanQueue{files: files, m: NewOpenOrderedMerge[FileResult](len(files), window, now)}
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
	return q.m.Extend(len(files))
}

// Finish closes an open queue: no further Extend is coming, so the scan
// runs out the remaining files and ends normally (tail flush included).
// Idempotent.
func (q *ScanQueue) Finish() { q.m.Finish() }

// Len reports the scan-set size known so far.
func (q *ScanQueue) Len() int { return q.m.Len() }

// Pos reports the assembler's position: the index of the next file it
// will merge. Len() - Pos() is the not-yet-merged backlog.
func (q *ScanQueue) Pos() int { return q.m.Pos() }

// file returns the path at index i under the files lock; workers and the
// assembler read through it because Extend grows the slice concurrently.
func (q *ScanQueue) file(i int) string {
	q.fmu.RLock()
	defer q.fmu.RUnlock()
	return q.files[i]
}

// Claim hands the caller the next unclaimed file index, blocking while
// the claim window is full. ok is false once the scan set is exhausted or
// the queue is aborted; a worker that gets ok must fill the file and
// Deposit the result (claims are never reassigned, so an abandoned claim
// would wedge the assembler).
func (q *ScanQueue) Claim() (idx int, file string, ok bool) {
	idx, ok = q.m.Claim()
	if !ok {
		return 0, "", false
	}
	return idx, q.file(idx), true
}

// Deposit publishes a claimed file's fill result and wakes the assembler.
func (q *ScanQueue) Deposit(idx int, res FileResult) { q.m.Deposit(idx, res) }

// Await returns file results strictly in index order: the idx'th call
// pattern is Await(0), Await(1), ... Each call blocks until that index
// has been deposited; ok is false when the queue is aborted or idx is
// past the scan set. Time spent blocked accumulates into Stall — the
// worker-starvation signal autoscaling consumes.
func (q *ScanQueue) Await(idx int) (res FileResult, ok bool) { return q.m.Await(idx) }

// SetWindow resizes the claim window (clamped to at least 1), waking
// workers the wider window unblocks. Shrinking never revokes claims
// already handed out.
func (q *ScanQueue) SetWindow(n int) { q.m.SetWindow(n) }

// Abort wakes every blocked Claim and Await with ok == false. Idempotent;
// called on session teardown and after the assembler finishes, so workers
// parked on a full window never outlive the scan.
func (q *ScanQueue) Abort() { q.m.Abort() }

// Stall returns the accumulated time Await spent blocked waiting for
// deposits — including an in-progress block — which is the "scan starved
// for fill workers" half of the autoscaling signal (the other half,
// waiting on the consumer, is measured where batches are handed off).
func (q *ScanQueue) Stall() time.Duration { return q.m.Stall() }

// FillQueue runs one worker over the queue: claim a file, fill it, and
// deposit the result, until the scan set is exhausted, the queue aborts,
// fill fails (the error is deposited for the assembler to surface in
// order), or stop returns true — the resizable pool's between-files
// scale-down checkpoint. A nil stop never stops.
//
// Fill work charges this reader's Stats; a pool sums its workers'
// readers to recover exactly the counters one serial scan would report,
// because every file is claimed exactly once.
func (r *Reader) FillQueue(ctx context.Context, q *ScanQueue, stop func() bool) {
	for {
		if stop != nil && stop() {
			return
		}
		idx, file, ok := q.Claim()
		if !ok {
			return
		}
		chunk, err := r.fill(ctx, file)
		q.Deposit(idx, FileResult{Chunk: chunk, Err: err})
		if err != nil {
			return
		}
	}
}

// RunQueue is the assembler half of a queued scan: it consumes deposited
// files in index order and cuts, converts, and processes batches exactly
// as a serial Run over q's whole file list would — same batch boundaries,
// same bytes, same deterministic counters (convert/process work charges
// this reader; fill work lives in the workers' readers). Returns ctx.Err
// when the queue aborts under a cancelled context.
func (r *Reader) RunQueue(ctx context.Context, q *ScanQueue, emit func(*Batch) error) error {
	i := 0
	return r.RunUnits(ctx, func() (Unit, bool) {
		res, ok := q.Await(i)
		if !ok {
			return Unit{}, false
		}
		u := Unit{File: q.file(i), Chunk: res.Chunk, Err: res.Err}
		i++
		return u, true
	}, emit)
}
