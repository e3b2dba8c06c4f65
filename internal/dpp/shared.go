package dpp

import (
	"context"

	"repro/internal/reader"
)

// worker is one fill worker of a session of either kind: its own reader (a
// reader serves one goroutine at a time) under the one fill every pool runs
// (reader.ScanFill) — chained to the queue's carry for a batch session,
// cutting every file at 0 for a unit session, whose fleet client cuts the
// carry — with the ScanCache memo in front of it when the session shares
// scans. The pool, the queue, the cutter and the shell are the same.
type worker struct {
	svc  *Service
	r    *reader.Reader
	fill reader.Fill

	// The memo's state. served is the egress of the cache-hit units (their
	// batches are shipped, not produced) and cache counts the lookups; both
	// are charged when the lookup happens, kept per worker and summed into
	// the session at exit, the way the reader's stats are.
	fingerprint string
	served      reader.Stats
	cache       SessionCacheStats
}

func newWorker(svc *Service, spec Spec, units bool) (*worker, error) {
	r, err := reader.NewReader(svc.backend, spec.Spec)
	if err != nil {
		return nil, err
	}
	w := &worker{svc: svc, r: r}
	var memo reader.Memo
	if spec.ShareScans {
		memo, w.fingerprint = w.memo, spec.Spec.Fingerprint()
	}
	w.fill = r.ScanFill(!units, memo)
	return w, nil
}

// run is the worker's life: the queue's one claim → fill loop under this
// worker's fill, then its accounting handed to the session.
func (w *worker) run(ctx context.Context, q *reader.ScanQueue, stop func() bool, account func(SessionCacheStats, ...reader.Stats)) {
	reader.FillQueue(ctx, q, w.fill, stop)
	account(w.cache, w.r.Stats(), w.served)
}

// memo is a ShareScans worker's reader.Memo and the only caller of
// ScanCache.Get: the file's scan, cut for the rows this session carries into
// it, looked up (single-flight; computed by the worker's own scan on a miss)
// and shared with every session that reaches the file with the same
// fingerprint and carry. One lookup per file per session, in file order at
// one worker, whatever the alignment.
//
// A scan is served while it is computed: on a miss the fill deposits the unit
// from inside the compute, as soon as the footer is parsed, and each piece
// follows through the hand-off as the scan cuts it — the hand-off never
// blocks, so the single-flight never waits on this session's consumer, and
// every other session asking for the key is served when the compute ends,
// however slow this one's trainer is. What the cache stores, and what a hit
// or a coalesced lookup receives, is the finished, immutable scan, replayed
// as pieces that are all there at once.
func (w *worker) memo(ctx context.Context, file string, carry int, compute func(context.Context) (*reader.FileScan, error)) (*reader.FileScan, bool, error) {
	key := ScanKey{File: file, Fingerprint: w.fingerprint, Carry: carry}
	scan, hit, err := w.svc.cache.Get(ctx, key, compute)
	if err != nil {
		return nil, false, err
	}
	if hit {
		w.cache.Hits++
		for _, b := range scan.Batches {
			w.served.BatchesProduced++
			w.served.SentBytes += int64(b.WireBytes())
		}
	} else {
		w.cache.Misses++
		w.svc.demoteRaw(key)
	}
	return scan, hit, nil
}
