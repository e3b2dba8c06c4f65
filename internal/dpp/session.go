package dpp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/reader"
	"repro/internal/storage"
)

// ErrClosed is returned by Next after the session has been closed.
var ErrClosed = errors.New("dpp: session closed")

// Spec is what a training job submits to the service: the DataLoader
// spec (which features, which dedup groups, which transforms) plus the
// session-level execution shape.
type Spec struct {
	reader.Spec

	// Readers is the session's initial reader-worker count. Workers take
	// stripes from a shared ordered work queue — the earliest stripe of the
	// files it has open, a next file index only when none is left, so every
	// worker reads the file the stream needs next — and an ordered merge
	// reassembles the stream, so the batch stream is byte-identical to a
	// serial reader.Run over the whole scan set at every worker count —
	// and stays so when the service's AutoScaler resizes the pool
	// mid-scan. 0 defaults to 1.
	Readers int
	// Buffer sizes the session's decoded-batch buffer ahead of the
	// consumer (backpressure) together with Readers: the session holds at
	// most Readers×Buffer finished batches. 0 defaults to 2.
	Buffer int
	// Files optionally fixes the scan set explicitly — a partition's
	// files, a sampled subset — bypassing catalog resolution of Table.
	Files []string
	// Tenant is the authenticated tenant the session is accounted to.
	// It is assigned by the serving side (dppnet derives it from the
	// handshake's tenant token after front-door admission — it is never
	// taken from a client's wire spec) and threads through worker
	// arbitration (Config.Arbiter) and access-log/metric labels. Empty
	// means the single-tenant default. Not part of the spec fingerprint:
	// tenancy changes accounting, never bytes.
	Tenant string
	// ShareScans opts the session into the service's cross-session
	// ScanCache: decoded, deduped, preprocessed batches are memoized per
	// (file, spec fingerprint, carried rows), so concurrent or successive
	// sessions with equal-output specs over the same files decode each
	// file once instead of once per session — whether or not the batch
	// size divides the files, since such sessions reach every file with
	// the same carry. The batch stream is byte-identical to an unshared
	// session's; batches served from the cache are shared between
	// sessions and must be treated as read-only (which Batch consumers
	// already must: batches never alias writer state).
	//
	// A file is served while it is decoded, whoever decodes it: a session
	// asking for a file another is computing reads the batches cut so far
	// at once and the rest as they are cut, exactly as the computing
	// session does. A session that closes while others read its compute
	// finishes that one file for them first, so its Close can take as long
	// as one file's scan.
	//
	// It changes nothing else about the session: the cache is a memo
	// inside each fill worker, so Readers, Resize, autoscaling, arbitration
	// and Follow mean what they mean for any session. Lookups are one per
	// file; at one worker they are issued in file order.
	ShareScans bool
	// Follow opts the session into tailing a live table: instead of EOF
	// at end-of-catalog, the session parks, observes newly landed files
	// via the catalog's generation counter, and emits them in landed
	// (publish-sequence) order. The stream ends only after EndFollow: the
	// remaining known files drain, the tail rows flush, and Next returns
	// io.EOF — at which point the stream is byte-identical to a cold
	// session opened on the frozen file prefix the tail observed.
	//
	// Follow requires the service catalog to implement
	// storage.TailingCatalog and is incompatible with an explicit Files
	// list (there is no catalog position to tail). It composes with
	// ShareScans: N tailers of one table decode each landed file once.
	Follow bool
}

// DefaultReaders and DefaultBuffer are the execution-shape defaults
// applied when a Spec leaves Readers/Buffer zero.
const (
	DefaultReaders = 1
	DefaultBuffer  = 2
)

// MaxWindow caps a session's backpressure window — the local output
// buffer, and the dppnet credit window the handshake and every credit
// grant are bounded by: a deeper one buys no overlap and only defers
// backpressure.
const MaxWindow = 1 << 10

func (s Spec) withDefaults() Spec {
	if s.Readers == 0 {
		s.Readers = DefaultReaders
	}
	if s.Buffer == 0 {
		s.Buffer = DefaultBuffer
	}
	return s
}

// Window is the session's backpressure bound: how many finished batches
// (or, for a unit stream, pieces: heads, batches and closing records) may
// sit ahead of the consumer — Readers × Buffer with the defaults applied,
// capped at MaxWindow. It is the one definition every boundary sizes from: a local
// session's output buffer of either kind, a remote session's credit window,
// the fleet session's output buffer. At least 1, so that a spec that validate
// will refuse still travels to the service that refuses it.
func (s Spec) Window() int {
	s = s.withDefaults()
	return max(1, min(s.Readers*s.Buffer, MaxWindow))
}

func (s Spec) validate() error {
	if s.Readers < 0 {
		return fmt.Errorf("dpp: negative reader count %d", s.Readers)
	}
	if s.Buffer < 0 {
		return fmt.Errorf("dpp: negative buffer %d", s.Buffer)
	}
	if s.Follow && s.Files != nil {
		return fmt.Errorf("dpp: Follow tails the catalog; an explicit Files list has no tail")
	}
	return s.Spec.Validate()
}

// Stream is the pull contract a training loop consumes: batches in
// deterministic order until io.EOF, a context or session error, or
// Close. A local Session satisfies it, and so does a dppnet remote
// session — training code written against Stream runs unchanged whether
// the preprocessing service is in-process or across a TCP boundary.
type Stream interface {
	Next(ctx context.Context) (*reader.Batch, error)
	Close() error
}

var _ Stream = (*Session)(nil)

// Session is one job's pull-based batch stream. Next and Close may be
// called from different goroutines, but Next itself is single-consumer:
// one goroutine (the training loop) pulls batches in order.
//
// Internally every session is a shared ordered work queue
// (reader.ScanQueue) over the scan's plan, feeding the reader's one cutter
// (reader.RunUnits): fill workers claim file indices and share out their
// stripes, earliest first — fill, convert and process, each file cut for the
// rows the plan carries into it — piece by piece into the cutter's hands:
// each file's unit is a reader of the file's piece log (reader.FileScan),
// which yields the batches of a scan as the workers cut them — or, on a
// ShareScans session, those of the ScanCache's log, whoever is computing it
// and however far it has got. The cutter awaits them in file order and joins them across file
// boundaries. The worker pool is resizable mid-scan (Resize, or the
// service's AutoScaler); the stream is byte-identical to the serial
// reference regardless of the memo, the pool's size or its resize history.
type Session struct {
	core[*reader.Batch]
}

// core is the one session: the Shell lifecycle over a resizable pool of fill
// workers on a reader.ScanQueue, the catalog tailer of a Follow session and
// the autoscaler and arbiter registration — everything but what turns the
// queue's units into the stream's items. A Session runs the cutter there, a
// UnitSession the unit emitter.
type core[T any] struct {
	Shell[T]

	svc *Service
	// spec is the defaulted Spec the session was opened with; read-only.
	spec  Spec
	queue *reader.ScanQueue

	// Follow state: the tailer goroutine watches the catalog and extends
	// the queue; EndFollow cancels it (followCancel), waits for it to
	// exit (followDone), and then finishes the queue — so no Extend can
	// race the Finish. All nil/zero for non-Follow sessions.
	followCancel context.CancelFunc
	followDone   chan struct{}
	endFollow    sync.Once

	// pmu guards the worker-pool shape. Go for spawned workers happens
	// under pmu, and teardown sets stopped under pmu before it waits, so a
	// racing Resize can never add past the wait.
	pmu        sync.Mutex
	target     int // desired worker count (= SchedulerStats.Workers)
	active     int // workers currently running
	stopped    bool
	scaleUps   int64
	scaleDowns int64
}

// tailState is the catalog position a Follow session starts tailing
// from: the generation at snapshot time and the publish sequence of the
// last file in the snapshot. Open captures it atomically enough (gen
// before files) that a landing racing the snapshot is seen either in the
// initial plan or by the first WaitChange, never missed. carry is the rows
// the plan carries out of its last file, where the tail's plan continues.
type tailState struct {
	catalog storage.TailingCatalog
	gen     uint64
	cursor  uint64
	carry   int
}

// start runs the session over plan: the queue, its workers, the tailer when
// tail is set (a Follow session), the autoscaler when the service has one,
// and feed, which turns the queue's units into the stream and returns the
// reader work it did itself. Workers begin claiming and decoding files
// immediately; nothing blocks on Open.
func (s *core[T]) start(ctx context.Context, svc *Service, id int64, spec Spec, plan []reader.Planned, tail *tailState,
	feed func(q *reader.ScanQueue) (reader.Stats, error)) error {
	s.svc, s.spec = svc, spec
	s.Open(ctx, svc.clock, spec.Window())
	s.Release = func(sched SchedulerStats, errored bool) { svc.retire(id, sched, errored) }
	// The queue's claim window bounds how many files may be claimed (being
	// scanned or scanned, not yet merged) ahead of the feed: one in-flight
	// file per worker and one completed slot to hand over through.
	newQueue := reader.NewScanQueue
	if tail != nil {
		newQueue = reader.NewOpenScanQueue
	}
	s.queue = newQueue(plan, spec.Readers+1, svc.clock.Now)
	s.Pool = s.poolStats
	s.HaltOn(func() {
		s.pmu.Lock()
		s.stopped = true
		s.pmu.Unlock()
		s.queue.Abort()
	})

	if tail != nil {
		fctx, fcancel := context.WithCancel(s.ctx)
		s.followCancel = fcancel
		s.followDone = make(chan struct{})
		s.Go(func() { s.runTailer(fctx, tail) })
	}

	s.pmu.Lock()
	s.target = spec.Readers
	for i := 0; i < spec.Readers; i++ {
		if err := s.spawnWorkerLocked(); err != nil {
			s.pmu.Unlock()
			s.teardown()
			return err
		}
	}
	s.pmu.Unlock()

	s.Go(func() {
		stats, err := feed(s.queue)
		s.Settle(err, stats, s.queue.Served())
	})

	if svc.autoscale != nil {
		// With an arbiter, the controller's Resize calls become bids:
		// the session registers under its tenant, and the arbiter owns
		// actuation (it may resize this session immediately to fit the
		// budget). Observation still reads this session's own stats.
		var target ScaleTarget = s
		if svc.arbiter != nil {
			svc.arbiter.Register(spec.Tenant, s)
			// Leave arbitration before retiring so the departed pool's
			// workers are redistributed to still-running sessions.
			s.Release = func(sched SchedulerStats, errored bool) {
				svc.arbiter.Unregister(s)
				svc.retire(id, sched, errored)
			}
			target = &arbitratedTarget{arb: svc.arbiter, tenant: spec.Tenant, sess: s}
		}
		as, err := NewAutoScaler(target, *svc.autoscale)
		if err != nil {
			s.teardown()
			if svc.arbiter != nil {
				svc.arbiter.Unregister(s)
			}
			return err
		}
		s.Go(func() { as.Run(s.ctx) })
	}
	return nil
}

// spawnWorkerLocked starts one fill worker; the caller holds pmu (which
// makes the Go safe against teardown's Wait) and has already counted the
// worker in target.
func (s *core[T]) spawnWorkerLocked() error {
	w, err := newWorker(s.svc, s.spec)
	if err != nil {
		return err
	}
	s.active++
	s.Go(func() { s.runFillWorker(w) })
	return nil
}

// runFillWorker drives one pool worker: claim files and their stripes,
// fill them, deposit results. Between claims it checks the scale-down
// checkpoint — a worker told to stop has already been uncounted by
// shouldStop, so only natural exits (queue exhausted, abort, fill error)
// decrement active here.
func (s *core[T]) runFillWorker(w *worker) {
	stopped := false
	w.run(s.ctx, s.queue, func() bool {
		stopped = s.workerShouldStop()
		return stopped
	}, s.account)
	if !stopped {
		s.pmu.Lock()
		s.active--
		s.pmu.Unlock()
	}
}

// workerShouldStop atomically decides and accounts one worker's
// scale-down exit, so a pool shrinking by k loses exactly k workers.
func (s *core[T]) workerShouldStop() bool {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.active > s.target {
		s.active--
		return true
	}
	return false
}

// Resize sets the session's desired worker count (clamped to at least 1),
// returning the new target. Scale-up spawns workers immediately;
// scale-down takes effect at each surplus worker's next checkpoint, between
// stripes — claims are never abandoned, which is one half of
// why the stream is identical across resize histories (the other half is
// the ordered merge). Safe for concurrent use; the service's AutoScaler is
// the usual caller.
func (s *core[T]) Resize(n int) int {
	if n < 1 {
		n = 1
	}
	s.pmu.Lock()
	if s.stopped || n == s.target {
		n = s.target
		s.pmu.Unlock()
		return n
	}
	up := n > s.target
	if up {
		s.scaleUps++
	} else {
		s.scaleDowns++
	}
	grow := n - s.active
	s.target = n
	for i := 0; i < grow; i++ {
		// Spawn cannot fail here: the spec was validated at Open and
		// NewReader has no other failure mode; guard anyway so a future
		// failure mode degrades to a smaller pool, never a panic.
		if err := s.spawnWorkerLocked(); err != nil {
			break
		}
	}
	// Resize the claim window under pmu too: concurrent Resize calls
	// (the AutoScaler plus a direct caller) must leave the window sized
	// for whichever target won, never the loser's.
	s.queue.SetWindow(n + 1)
	s.pmu.Unlock()
	s.svc.noteScale(up)
	return n
}

// poolStats is the session's worker-pool telemetry.
func (s *core[T]) poolStats() SchedulerStats {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	return SchedulerStats{Workers: s.target, ScaleUps: s.scaleUps, ScaleDowns: s.scaleDowns,
		WorkerStall: s.queue.Stall()}
}

// runTailer is a Follow session's catalog watcher: it parks on the
// catalog generation, pulls the files published past its cursor, and
// extends the open scan queue with them in landed order, planned on from
// the rows carried out of the last. Exits when its context is cancelled —
// by EndFollow (clean end of the tail) or by session teardown.
func (s *core[T]) runTailer(ctx context.Context, tail *tailState) {
	defer close(s.followDone)
	gen, cursor, carry := tail.gen, tail.cursor, tail.carry
	for {
		g, err := tail.catalog.WaitChange(ctx, gen)
		if err != nil {
			return
		}
		gen = g
		pubs, err := tail.catalog.PublishedFiles(s.spec.Table, cursor)
		if err != nil || len(pubs) == 0 {
			// No news for this table (the mutation was another table's, a
			// retention drop, or the table itself vanished): keep watching.
			continue
		}
		cursor = pubs[len(pubs)-1].Seq
		var plan []reader.Planned
		plan, carry = reader.Plan(s.spec.BatchSize, carry, pubs)
		s.queue.Extend(plan)
		s.svc.noteExtend(len(plan))
	}
}

// EndFollow ends a Follow session's tail: the catalog watcher stops, the
// already-observed files drain, the final short batch (if any) flushes,
// and Next returns io.EOF — the stream as a whole is then byte-identical
// to a cold session over the frozen prefix the tail observed. Blocks
// only until the watcher exits. Idempotent; a no-op on non-Follow
// sessions.
func (s *core[T]) EndFollow() {
	if s.followCancel == nil {
		return
	}
	s.endFollow.Do(func() {
		s.followCancel()
		<-s.followDone
		s.queue.Finish()
	})
}

// Following reports whether this session was opened with Follow.
func (s *core[T]) Following() bool { return s.followCancel != nil }

// FollowLag reports how many observed files the session has not yet
// merged into its stream — the catalog-to-consumer lag the landing
// metrics export. Zero for non-Follow sessions.
func (s *core[T]) FollowLag() int {
	if s.followCancel == nil {
		return 0
	}
	return s.queue.Len() - s.queue.Pos()
}

// Next returns the session's next preprocessed batch. It blocks until a
// batch is buffered, the scan is exhausted (io.EOF), a reader fails (the
// first error), ctx is cancelled (ctx.Err()), or the session is closed
// (ErrClosed). Batches arrive in deterministic order: the single serial
// scan order over the session's file list, at every worker count.
//
// A scan that fails delivers the serial reference stream's prefix, then the
// error — not "no batch of the bad file": batches are cut from a file's
// stripes as they are decoded, so a file damaged at its k-th stripe has
// already yielded every batch that lies wholly in the stripes before it,
// exactly as a serial reader.Run yields them, at every worker count and on
// every path: a ShareScans session is handed a file's batches as the
// cache's compute cuts them — its own compute or another session's — like
// any session's, and the damaged file leaves no cache entry.
func (s *Session) Next(ctx context.Context) (*reader.Batch, error) {
	b, err := s.Pull(ctx)
	if err == nil {
		s.svc.noteBatch()
	}
	return b, err
}

// SessionStats is the session's aggregated accounting: the per-reader
// pipeline counters, the session's view of the cross-session scan cache,
// and the scheduler's scaling/starvation telemetry.
type SessionStats struct {
	// Reader aggregates the session's reader accounting. For a
	// ShareScans session these counters reflect work this session
	// actually performed plus batches it actually served: cache-hit
	// files contribute BatchesProduced and SentBytes (the session still
	// ships those batches to its trainer) but no fill/convert/process
	// work — the ingest-and-compute saving cross-session sharing exists
	// to create.
	Reader reader.Stats
	// Cache is this session's scan-cache traffic; zero for sessions
	// without ShareScans.
	Cache SessionCacheStats
	// Scheduler is the session's worker-pool telemetry. Unlike Reader's
	// deterministic counters it is timing- and scheduling-dependent:
	// determinism tests compare streams and Reader counters and treat
	// Scheduler as informational.
	Scheduler SchedulerStats
}

// SessionCacheStats counts one session's ScanCache lookups.
type SessionCacheStats struct {
	// Hits counts file scans served from the cache (including scans this
	// session waited on another session to compute); Misses counts file
	// scans this session computed and published.
	Hits, Misses int64
}

// SchedulerStats is one session's scheduling telemetry: the pool shape,
// the resize history, and the two starvation signals the AutoScaler
// trades off.
type SchedulerStats struct {
	// Workers is the current desired worker-pool size.
	Workers int
	// ScaleUps and ScaleDowns count Resize calls that grew or shrank the
	// pool.
	ScaleUps, ScaleDowns int64
	// WorkerStall is the total time the ordered merge spent blocked on a
	// fill worker — waiting for a file's deposit, or inside a file for its
	// next piece: the session was starved for reader parallelism.
	WorkerStall time.Duration
	// ConsumerStall is the total time the merge spent blocked handing a
	// finished batch to the consumer (a full output buffer — for remote
	// sessions, ultimately an exhausted dppnet credit window): the
	// consumer was the bottleneck.
	ConsumerStall time.Duration
}
