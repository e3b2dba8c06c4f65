package dpp

import (
	"context"

	"repro/internal/dwrf"
	"repro/internal/reader"
)

// UnitPiece is one item of a unit stream, what a preprocessing shard
// serves to the fleet multiplexer (dppshard): one of a file's complete
// batches, in row order, or — last — the file's closing record with its
// carry-out tail rows. Shipping file-aligned pieces instead of a batch
// stream is what lets the client-side merge reassemble the global file
// order byte-identically — batch boundaries that cross file boundaries are
// cut client-side from the tails, so they never depend on how files were
// split across shards. How many pieces a file has depends only on its rows
// and the spec, never on whether a cache served it.
type UnitPiece struct {
	// Index is the file's position in the session's own file list (the
	// shard's subset, not the fleet's global order — the mux owns that
	// mapping), and File its path.
	Index int
	File  string
	// Batch is one complete batch of the file. Batches a cache served are
	// shared and must be treated as read-only, which consumers already
	// must: pieces never alias producer state.
	Batch *reader.Batch
	// Tail, set instead of Batch, closes the file: the rows after its last
	// complete batch, none when it ends on a batch boundary, in a chunk that
	// names the file's schema either way.
	Tail *dwrf.Chunk
	// Hit, on the closing record, reports whether the file was served from
	// the service's cross-session ScanCache rather than decoded for this
	// session.
	Hit bool
}

// UnitSession is a session that yields its files piece by piece, in
// file-list order, instead of a batch stream — the serving half of a fleet
// shard. NextPiece and Close may be called from different goroutines, but
// NextPiece itself is single-consumer.
//
// It is a batch session without the cutter: Spec.Readers workers over the
// same reader.ScanQueue run the same claim → fill loop, and each unit's
// pieces are emitted as its worker hands them over, strictly in order — a
// file's first batch leaves while its third stripe is being fetched. Every
// file is cut as if entered on a batch boundary, since the carry is cut
// client-side: the workers' fill is unchained, behind the ScanCache memo for
// a ShareScans session.
//
// Stats reports the same shape a batch session does, so fleet-level
// aggregation (dppshard) and the dppnet stats trailer treat both kinds
// uniformly; Workers is the fixed scan-worker count — unit sessions are
// not autoscaled; the fleet scales by adding shards, not by resizing one
// shard's pool.
type UnitSession struct {
	// The output buffer holds pieces — batches, and tails smaller than one —
	// so its bound is the one a batch session's has: Spec.Window().
	Shell[UnitPiece]
}

// OpenUnits admits a file-unit session under the same MaxSessions cap,
// catalog resolution, and teardown rules as Open. It is the server-side
// entry point for fleet shards (dppnet's file-unit mode); training jobs
// consume batch sessions, not unit sessions.
func (s *Service) OpenUnits(ctx context.Context, spec Spec) (*UnitSession, error) {
	spec, files, err := s.plan(spec)
	if err != nil {
		return nil, err
	}
	return admit(s, func(id int64) (*UnitSession, error) {
		return newUnitSession(ctx, s, id, spec, files)
	})
}

// newUnitSession starts the workers and the loop that emits their pieces.
// Workers begin decoding immediately; nothing blocks on OpenUnits.
func newUnitSession(ctx context.Context, svc *Service, id int64, spec Spec, files []string) (*UnitSession, error) {
	u := &UnitSession{}
	u.Open(ctx, svc.clock, spec.Window())
	u.Release = func(sched SchedulerStats, errored bool) { svc.retire(id, sched, errored) }

	q := reader.NewScanQueue(files, queueWindow(spec.Readers), svc.clock.Now)
	u.Pool = func() SchedulerStats {
		return SchedulerStats{Workers: spec.Readers, WorkerStall: q.Stall()}
	}
	u.HaltOn(q.Abort)
	for i := 0; i < spec.Readers; i++ {
		w, err := newWorker(svc, spec, true)
		if err != nil {
			u.teardown()
			return nil, err
		}
		u.Go(func() { w.run(u.ctx, q, nil, u.account) })
	}
	u.Go(func() { u.Settle(u.emitUnits(q)) })
	return u, nil
}

// emitUnits hands the pieces of the queue's units to the consumer, strictly
// in file-list order, until the scan set ends or a unit ends in an error —
// after the pieces that preceded it.
func (u *UnitSession) emitUnits(q *reader.ScanQueue) error {
	var i int
	var it reader.Unit
	// Cut on a batch boundary, a file's only rows piece is its tail.
	emit := func(p reader.Piece) error {
		return u.Emit(UnitPiece{Index: i, File: it.File, Batch: p.Batch, Tail: p.Rows, Hit: it.Hit && p.Rows != nil})
	}
	for ; ; i++ {
		var ok bool
		if it, ok = q.Await(i); !ok { // past the last file, or aborted: teardown owns the outcome
			return nil
		}
		if it.Err != nil {
			return it.Err
		}
		if err := it.Pieces(emit); err != nil {
			return err
		}
	}
}

// NextPiece returns the session's next piece, strictly in file-list and row
// order. It blocks until a piece is buffered, the scan is exhausted
// (io.EOF), a scan fails (the first error, after the in-order prefix of
// pieces that preceded it), ctx is cancelled, or the session is closed
// (ErrClosed).
func (u *UnitSession) NextPiece(ctx context.Context) (UnitPiece, error) { return u.Pull(ctx) }
