package dpp

import (
	"context"

	"repro/internal/reader"
)

// worker is one fill worker of a session of either kind: its own reader (a
// reader serves one goroutine at a time) under the one fill every pool runs
// (reader.ScanFill) — the files it claims opened, and the stripes it takes
// of any file the pool has open read and cut, with this reader, each file
// cut at the carry the plan gives it — with the ScanCache memo in front of
// it when the session shares scans. The pool, the queue, the cutter and the
// shell are the same.
type worker struct {
	svc  *Service
	r    *reader.Reader
	fill reader.Fill

	// The memo's state. cache counts the lookups, charged when they happen,
	// kept per worker and summed into the session at exit, the way the
	// reader's stats are; a hit's egress is the session queue's
	// (reader.ScanQueue.Served), charged as its batches are read.
	fingerprint string
	cache       SessionCacheStats
}

func newWorker(svc *Service, spec Spec) (*worker, error) {
	r, err := reader.NewReader(svc.backend, spec.Spec)
	if err != nil {
		return nil, err
	}
	w := &worker{svc: svc, r: r}
	var memo reader.Memo
	if spec.ShareScans {
		memo, w.fingerprint = w.memo, spec.Spec.Fingerprint()
	}
	w.fill = r.ScanFill(memo)
	return w, nil
}

// run is the worker's life: the queue's one claim → fill loop under this
// worker's fill, then its accounting handed to the session.
func (w *worker) run(ctx context.Context, q *reader.ScanQueue, stop func() bool, account func(SessionCacheStats, ...reader.Stats)) {
	reader.FillQueue(ctx, q, w.fill, stop)
	account(w.cache, w.r.Stats())
}

// memo is a ShareScans worker's reader.Memo and the only caller of
// ScanCache.Get: the file's scan, cut for the rows this session carries into
// it, looked up (single-flight; computed by the worker's own scan on a miss)
// and shared with every session that reaches the file with the same
// fingerprint and carry. One lookup per file per session, in file order at
// one worker, whatever the alignment.
//
// A scan is served while it is computed, to everyone: on a miss the compute
// publishes its log before the scan starts, and the session computing it, a
// session coalesced onto it and a later hit each read that log the same way
// (reader.ScanFill). Sending a piece never blocks, so the single-flight never
// waits on any session's consumer. The compute outlives its session's
// context: it ends with the file, or when every session reading the log has
// gone — so a session closed while others follow its compute finishes that
// one file for them (its Close waits for it), and one closed with nobody
// following stops at its next piece and leaves no entry. The worker that
// computes takes the file's stripes with the session's other workers helping
// while the session runs, and the compute returns once the last is cut.
func (w *worker) memo(ctx context.Context, file string, carry int, scan func(context.Context, *reader.FileScan) error) (*reader.FileScan, bool, error) {
	key := ScanKey{File: file, Fingerprint: w.fingerprint, Carry: carry}
	fs, hit, err := w.svc.cache.Get(ctx, key, func(ctx context.Context, publish func(*reader.FileScan)) (*reader.FileScan, error) {
		fs := reader.NewFileScan(carry, true)
		publish(fs)
		return fs, scan(context.WithoutCancel(ctx), fs)
	})
	switch {
	case err != nil:
	case hit:
		w.cache.Hits++
	default:
		w.cache.Misses++
	}
	return fs, hit, err
}
