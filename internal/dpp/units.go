package dpp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

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
// Internally a non-ShareScans unit session runs Spec.Readers scan
// workers over the same ordered-merge discipline a batch session's fill
// pool uses (reader.OrderedMerge): workers claim file indices, decode
// whole files in parallel, and a single merge emits them strictly in
// order. A ShareScans unit session runs a single loop through the
// service's ScanCache — the cache is its cross-session parallelism —
// exactly as a ShareScans batch session does.
type UnitSession struct {
	svc    *Service
	id     int64
	cancel context.CancelFunc
	ctx    context.Context
	spec   Spec
	files  []string

	// out is the bounded unit buffer between the merge and NextUnit;
	// units are whole decoded files, so the bound is Spec.Buffer alone
	// (not Readers×Buffer — the merge window already scales the
	// in-flight decode bound with the worker count).
	out   chan *FileUnit
	merge *reader.OrderedMerge[unitResult] // nil for ShareScans sessions
	wg    sync.WaitGroup

	mu       sync.Mutex
	stats    reader.Stats
	cache    SessionCacheStats
	firstErr error
	closed   bool
	done     bool
	// final is the outcome finish reported, io.EOF for a clean scan.
	final error
}

// unitResult is one decoded file handed from a scan worker to the merge.
type unitResult struct {
	scan *reader.FileScan
	err  error
}

// OpenUnits admits a file-unit session under the same MaxSessions cap,
// catalog resolution, and teardown rules as Open. It is the server-side
// entry point for fleet shards (dppnet's file-unit mode); training jobs
// consume batch sessions, not unit sessions.
func (s *Service) OpenUnits(ctx context.Context, spec Spec) (*UnitSession, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}

	files := spec.Files
	if files == nil {
		if s.catalog == nil {
			return nil, fmt.Errorf("dpp: service has no catalog and spec %q names no files", spec.Table)
		}
		var err error
		files, err = s.catalog.AllFiles(spec.Table)
		if err != nil {
			return nil, err
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("dpp: service closed")
	}
	if s.max > 0 && len(s.sessions)+len(s.unitSessions)+s.reserved >= s.max {
		s.mu.Unlock()
		return nil, fmt.Errorf("dpp: session cap %d reached", s.max)
	}
	s.reserved++
	s.nextID++
	id := s.nextID
	s.mu.Unlock()

	u, err := newUnitSession(ctx, s, id, spec, files)
	s.mu.Lock()
	s.reserved--
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if s.closed {
		s.mu.Unlock()
		u.Close()
		return nil, fmt.Errorf("dpp: service closed")
	}
	s.unitSessions[id] = u
	s.opened.Inc()
	s.mu.Unlock()
	return u, nil
}

// newUnitSession starts the scan workers and the unit merge. Workers
// begin decoding immediately; nothing blocks on OpenUnits.
func newUnitSession(ctx context.Context, svc *Service, id int64, spec Spec, files []string) (*UnitSession, error) {
	if spec.ShareScans && svc.cache == nil {
		return nil, fmt.Errorf("dpp: spec requests ShareScans but the service's scan cache is disabled")
	}
	sctx, cancel := context.WithCancel(ctx)
	u := &UnitSession{
		svc:    svc,
		id:     id,
		cancel: cancel,
		ctx:    sctx,
		spec:   spec,
		files:  files,
		out:    make(chan *FileUnit, spec.Buffer),
	}

	if spec.ShareScans {
		r, err := reader.NewReader(svc.backend, spec.Spec)
		if err != nil {
			cancel()
			return nil, err
		}
		u.wg.Add(1)
		go u.runSharedUnits(r, spec.Spec.Fingerprint())
		return u, nil
	}

	u.merge = reader.NewOrderedMerge[unitResult](len(files), queueWindow(spec, spec.Readers), svc.clock.Now)

	// The merge blocks on condition variables, not channels; this watcher
	// translates context teardown into an Abort that wakes every parked
	// worker, exactly as the batch session's queue watcher does.
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		<-u.ctx.Done()
		u.merge.Abort()
	}()

	for i := 0; i < spec.Readers; i++ {
		r, err := reader.NewReader(svc.backend, spec.Spec)
		if err != nil {
			cancel()
			u.merge.Abort()
			return nil, err
		}
		u.wg.Add(1)
		go u.runUnitWorker(r)
	}

	u.wg.Add(1)
	go u.runUnitMerge()
	return u, nil
}

// runUnitWorker drives one scan worker: claim file indices, decode whole
// files, deposit the scans. Decode work charges this worker's reader;
// the session sums its workers at exit, so a cold aligned unit session's
// counters equal the serial reference's for its file subset.
func (u *UnitSession) runUnitWorker(r *reader.Reader) {
	defer u.wg.Done()
	for {
		idx, ok := u.merge.Claim()
		if !ok {
			break
		}
		scan, err := r.ScanFile(u.ctx, u.files[idx])
		u.merge.Deposit(idx, unitResult{scan: scan, err: err})
		if err != nil {
			break
		}
	}
	u.mu.Lock()
	u.stats.Add(r.Stats())
	u.mu.Unlock()
}

// runUnitMerge emits deposited scans strictly in file-list order. The
// out channel is closed only after the outcome is recorded, so a
// consumer that observes the close also observes the outcome; the
// trailing Abort wakes workers parked on a full window.
func (u *UnitSession) runUnitMerge() {
	defer u.wg.Done()
	var keys []string
	var firstErr error
	for i := range u.files {
		res, ok := u.merge.Await(i)
		if !ok {
			break // aborted: teardown owns the outcome
		}
		if res.err != nil {
			firstErr = res.err
			break
		}
		if keys != nil && len(res.scan.Keys) != len(keys) {
			firstErr = fmt.Errorf("dpp: file %q schema mismatch (%d vs %d features)", u.files[i], len(res.scan.Keys), len(keys))
			break
		}
		keys = res.scan.Keys
		if err := u.emitUnit(&FileUnit{Index: i, File: u.files[i], Scan: res.scan}); err != nil {
			break // context teardown; outcome handled below
		}
	}
	u.settle(firstErr)
	u.merge.Abort()
	close(u.out)
}

// runSharedUnits is the ShareScans twin of runUnitMerge: one loop, every
// aligned unit through the service's cross-session ScanCache. Cache-hit
// units charge egress (BatchesProduced, SentBytes) but no decode work —
// the same accounting contract as a ShareScans batch session.
func (u *UnitSession) runSharedUnits(r *reader.Reader, fingerprint string) {
	defer u.wg.Done()
	var served reader.Stats
	var cache SessionCacheStats
	var keys []string
	var firstErr error
	for i, f := range u.files {
		if err := u.ctx.Err(); err != nil {
			break
		}
		scan, hit, err := u.svc.cache.Get(u.ctx, f, fingerprint, func(ctx context.Context) (*reader.FileScan, error) {
			return r.ScanFile(ctx, f)
		})
		if err != nil {
			firstErr = err
			break
		}
		if hit {
			cache.Hits++
		} else {
			cache.Misses++
		}
		if keys != nil && len(scan.Keys) != len(keys) {
			firstErr = fmt.Errorf("dpp: file %q schema mismatch (%d vs %d features)", f, len(scan.Keys), len(keys))
			break
		}
		keys = scan.Keys
		if hit {
			for _, b := range scan.Batches {
				served.BatchesProduced++
				served.SentBytes += int64(b.WireBytes())
			}
		}
		if err := u.emitUnit(&FileUnit{Index: i, File: f, Scan: scan, Hit: hit}); err != nil {
			break
		}
	}
	u.mu.Lock()
	u.stats.Add(served)
	u.cache.Hits += cache.Hits
	u.cache.Misses += cache.Misses
	u.mu.Unlock()
	u.settle(firstErr)
	u.mu.Lock()
	u.stats.Add(r.Stats())
	u.mu.Unlock()
	close(u.out)
}

// settle records the scan outcome, filtering the session's own teardown
// out of the error channel exactly as batch sessions do.
func (u *UnitSession) settle(err error) {
	u.mu.Lock()
	if err != nil && u.firstErr == nil && !errors.Is(err, context.Canceled) {
		u.firstErr = err
	}
	u.mu.Unlock()
}

// emitUnit hands one unit to the consumer through the bounded buffer.
func (u *UnitSession) emitUnit(unit *FileUnit) error {
	select {
	case u.out <- unit:
		return nil
	case <-u.ctx.Done():
		return u.ctx.Err()
	}
}

// NextUnit returns the session's next file unit, strictly in file-list
// order. It blocks until a unit is buffered, the scan is exhausted
// (io.EOF), a scan fails (the first error, after the in-order prefix of
// units that preceded it), ctx is cancelled, or the session is closed
// (ErrClosed).
func (u *UnitSession) NextUnit(ctx context.Context) (*FileUnit, error) {
	select {
	case unit, ok := <-u.out:
		if !ok {
			return nil, u.finish()
		}
		return unit, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-u.ctx.Done():
		u.mu.Lock()
		closed, final := u.closed, u.final
		u.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		if final != nil {
			// The stream already ended and teardown cancelled the session's
			// own context: repeat the recorded outcome.
			return nil, final
		}
		return nil, u.ctx.Err()
	}
}

// finish mirrors Session.finish: stop everything, settle the outcome,
// release the service slot, and report EOF only for a clean scan.
func (u *UnitSession) finish() error {
	u.mu.Lock()
	final, closed := u.final, u.closed
	u.mu.Unlock()
	if final != nil {
		// A Next after the end repeats the outcome.
		if closed {
			return ErrClosed
		}
		return final
	}
	ctxErr := u.ctx.Err()
	u.teardown()
	u.mu.Lock()
	err := u.firstErr
	closed = u.closed
	u.mu.Unlock()
	u.release()
	if err == nil {
		if closed {
			err = ErrClosed
		} else if ctxErr != nil {
			err = ctxErr
		} else {
			err = io.EOF
		}
	}
	u.mu.Lock()
	u.final = err
	u.mu.Unlock()
	return err
}

// teardown cancels the session context and waits for every session
// goroutine. Idempotent.
func (u *UnitSession) teardown() {
	u.cancel()
	if u.merge != nil {
		u.merge.Abort()
	}
	u.wg.Wait()
}

// Close cancels the session's workers, waits for them to exit, and
// releases the session's service slot. Idempotent; always returns nil.
// Units already returned by NextUnit remain valid.
func (u *UnitSession) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	u.teardown()
	u.release()
	return nil
}

// release gives the session's service slot back exactly once, folding
// the session's final scheduling telemetry into the service-wide stall
// counters as batch sessions do.
func (u *UnitSession) release() {
	u.mu.Lock()
	done := u.done
	u.done = true
	errored := u.firstErr != nil
	u.mu.Unlock()
	if !done {
		u.svc.retireUnit(u.id, u.Stats().Scheduler, errored)
	}
}

// Stats returns the session's aggregated accounting in the same shape a
// batch session reports, so fleet-level aggregation (dppshard) and the
// dppnet stats trailer treat both session kinds uniformly. Workers is
// the fixed scan-worker count — unit sessions are not autoscaled; the
// fleet scales by adding shards, not by resizing one shard's pool.
func (u *UnitSession) Stats() SessionStats {
	sched := SchedulerStats{Workers: u.spec.Readers}
	if u.spec.ShareScans {
		sched.Workers = 1
	}
	if u.merge != nil {
		sched.WorkerStall = u.merge.Stall()
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	return SessionStats{Reader: u.stats, Cache: u.cache, Scheduler: sched}
}
