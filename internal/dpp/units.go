package dpp

import (
	"context"

	"repro/internal/reader"
)

// FileUnit is one file's complete decoded scan, the unit a preprocessing
// shard serves to the fleet multiplexer (dppshard): the file's complete
// batches plus its carry-out tail rows, exactly the ScanCache's unit of
// sharing. Shipping whole file-aligned units instead of a batch stream
// is what lets the client-side merge reassemble the global file order
// byte-identically — batch boundaries that cross file boundaries are cut
// client-side from the tails, so they never depend on how files were
// split across shards.
type FileUnit struct {
	// Index is the file's position in the session's own file list (the
	// shard's subset, not the fleet's global order — the mux owns that
	// mapping).
	Index int
	// File is the file's path.
	File string
	// Scan is the decoded unit. Cache-hit units are shared and must be
	// treated as read-only, which FileUnit consumers already must: units
	// never alias producer state.
	Scan *reader.FileScan
	// Hit reports whether the unit was served from the service's
	// cross-session ScanCache rather than decoded for this session.
	Hit bool
}

// UnitSession is a session that yields whole decoded files in file-list
// order instead of a batch stream — the serving half of a fleet shard.
// NextUnit and Close may be called from different goroutines, but
// NextUnit itself is single-consumer.
//
// It is a batch session without the cutter: Spec.Readers workers over the
// same reader.ScanQueue run the same claim → fill → deposit loop, and the
// units are emitted as the queue yields them, strictly in order. Every
// file is cut as if entered on a batch boundary, since the carry is cut
// client-side: by reader.ScanUnit, or through the ScanCache memo for a
// ShareScans session.
//
// Stats reports the same shape a batch session does, so fleet-level
// aggregation (dppshard) and the dppnet stats trailer treat both kinds
// uniformly; Workers is the fixed scan-worker count — unit sessions are
// not autoscaled; the fleet scales by adding shards, not by resizing one
// shard's pool.
type UnitSession struct {
	// The output buffer holds whole decoded files, so its bound is
	// Spec.Buffer alone (not Readers×Buffer — the merge window already
	// scales the in-flight decode bound with the worker count).
	Shell[*FileUnit]
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

// newUnitSession starts the workers and the loop that emits their units.
// Workers begin decoding immediately; nothing blocks on OpenUnits.
func newUnitSession(ctx context.Context, svc *Service, id int64, spec Spec, files []string) (*UnitSession, error) {
	u := &UnitSession{}
	u.Open(ctx, svc.clock, spec.Buffer)
	u.Release = func(sched SchedulerStats, errored bool) { svc.retire(id, sched, errored) }

	q := reader.NewScanQueue(files, queueWindow(spec, spec.Readers), svc.clock.Now)
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

// emitUnits hands the queue's units to the consumer, strictly in
// file-list order, until the scan set ends or a unit carries an error.
func (u *UnitSession) emitUnits(q *reader.ScanQueue) error {
	for i := 0; ; i++ {
		it, ok := q.Await(i) // false past the last file, or aborted: teardown owns the outcome
		if !ok {
			return nil
		}
		if it.Err != nil {
			return it.Err
		}
		if err := u.Emit(&FileUnit{Index: i, File: it.File, Scan: it.Scan, Hit: it.Hit}); err != nil {
			return err
		}
	}
}

// NextUnit returns the session's next file unit, strictly in file-list
// order. It blocks until a unit is buffered, the scan is exhausted
// (io.EOF), a scan fails (the first error, after the in-order prefix of
// units that preceded it), ctx is cancelled, or the session is closed
// (ErrClosed).
func (u *UnitSession) NextUnit(ctx context.Context) (*FileUnit, error) { return u.Pull(ctx) }
