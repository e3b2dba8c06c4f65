package dpp

import (
	"context"

	"repro/internal/reader"
)

// worker is one fill worker of a session of either kind: its own reader (a
// reader serves one goroutine at a time) behind the fill function the
// session's spec selects — the only thing that differs between an unshared
// batch session (fill; the cutter converts), an unshared unit session
// (scan at carry 0) and a ShareScans session of either kind (the ScanCache
// memo). The pool, the queue, the cutter and the shell are the same.
type worker struct {
	svc  *Service
	r    *reader.Reader
	fill reader.Fill

	// The memo's state. batch is the spec's batch size, or 0 for a unit
	// session, which serves every file cut at carry 0 (the fleet client
	// cuts the carry). served is the egress of the cache-hit units (their
	// batches are shipped, not produced) and cache counts the lookups; both
	// are charged when the lookup happens, kept per worker and summed into
	// the session at exit, the way fill stats are.
	fingerprint string
	batch       int
	served      reader.Stats
	cache       SessionCacheStats
}

func newWorker(svc *Service, spec Spec, units bool) (*worker, error) {
	r, err := reader.NewReader(svc.backend, spec.Spec)
	if err != nil {
		return nil, err
	}
	w := &worker{svc: svc, r: r, fill: reader.FillFrom(r.FillUnit)}
	switch {
	case spec.ShareScans:
		w.fill, w.fingerprint = w.memo, spec.Spec.Fingerprint()
		if !units {
			w.batch = spec.BatchSize
		}
	case units:
		w.fill = reader.FillFrom(r.ScanUnit)
	}
	return w, nil
}

// run is the worker's life: the queue's one claim → fill loop under this
// worker's fill, then its accounting handed to the session.
func (w *worker) run(ctx context.Context, q *reader.ScanQueue, stop func() bool, account func(SessionCacheStats, ...reader.Stats)) {
	reader.FillQueue(ctx, q, w.fill, stop)
	account(w.cache, w.r.Stats(), w.served)
}

// memo is a ShareScans worker's fill and the only caller of ScanCache.Get:
// the file's scan, cut for the rows this session carries into it, looked up
// (single-flight; computed by ScanFile on a miss) and shared with every
// session that reaches the file with the same fingerprint and carry. A
// batch session learns its carry from the queue's chain — the rows of every
// earlier file, mod batch — and feeds the chain the moment this file's row
// count is known: from the footer on a miss, before any stripe is fetched,
// so the next file's worker starts while this one is still filling; from
// the entry on a hit, or when a lookup coalesced onto another session's
// compute returns. One lookup per file per session, in file order at one
// worker, whatever the alignment.
//
// A scan is served while it is computed: on a miss the unit is deposited
// from inside the compute, as soon as the footer is parsed, and each piece
// follows through the hand-off as ScanFile cuts it — the hand-off never
// blocks, so the single-flight never waits on this session's consumer, and
// every other session asking for the key is served when the compute ends,
// however slow this one's trainer is. What the cache stores, and what a hit
// or a coalesced lookup receives, is the finished, immutable scan, replayed
// as pieces that are all there at once.
func (w *worker) memo(ctx context.Context, c reader.Claim) error {
	key := ScanKey{File: c.File, Fingerprint: w.fingerprint}
	if w.batch > 0 {
		var ok bool
		if key.Carry, ok = c.Carry(w.batch); !ok {
			c.Deposit(reader.Unit{File: c.File, Err: context.Canceled}) // the queue aborted: nobody awaits this deposit
			return context.Canceled
		}
	}
	var streamed *reader.Handoff
	scan, hit, err := w.svc.cache.Get(ctx, key, func(ctx context.Context) (*reader.FileScan, error) {
		return w.r.ScanFile(ctx, c.File, key.Carry, func(rows int) {
			c.Report(rows)
			streamed = c.HandOff(reader.Unit{File: c.File, Cut: true, Carry: key.Carry})
		}, func(p reader.Piece) error { return streamed.Send(p) })
	})
	switch {
	case streamed != nil:
		streamed.Close(err)
	case err != nil:
		c.Deposit(reader.Unit{File: c.File, Err: err})
	default:
		c.Report(scan.Rows())
		c.Deposit(scan.Unit(c.File, hit))
	}
	if err != nil {
		return err
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
	return nil
}
