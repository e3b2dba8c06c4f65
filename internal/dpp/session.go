package dpp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/datagen"
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

	// Readers is the session's initial reader-worker count. Workers pull
	// file indices from a shared ordered work queue and an ordered merge
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
	// (file, spec fingerprint), so concurrent or successive sessions with
	// equal-output specs over the same files decode each file once
	// instead of once per session. The batch stream is byte-identical to
	// an unshared session's; batches served from the cache are shared
	// between sessions and must be treated as read-only (which Batch
	// consumers already must: batches never alias writer state).
	//
	// A ShareScans session runs a single scan loop — the cache itself is
	// its cross-session parallelism — so Readers is effectively 1 and
	// Resize/autoscaling are no-ops on it. reader.Spec's FillAhead knob
	// instead becomes the miss-path prefetch depth: with FillAhead > 0 a
	// producer goroutine runs up to FillAhead files ahead of the emit
	// loop, issuing the ScanCache lookups (and misaligned-fallback fills)
	// speculatively in file order, so a cold scan overlaps the next
	// file's fill/convert with the current file's egress. Lookup order,
	// single-flight dedup, and hit/miss accounting are identical to the
	// inline (FillAhead == 0) path.
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
	// list (there is no catalog position to tail) and with ShareScans
	// (the shared scan loop has no open-ended queue).
	Follow bool
	// OnExtend, when non-nil, is called from the session's tailer
	// goroutine with each slice of newly observed files, after they join
	// the scan plan. Serving-side hook (dppnet announces extensions to
	// remote clients through it); never part of the wire spec. The
	// callback must not block for long — the tail pauses while it runs —
	// and must not call back into the session.
	OnExtend func(files []string)
}

// DefaultReaders and DefaultBuffer are the execution-shape defaults
// applied when a Spec leaves Readers/Buffer zero. dppnet sizes a remote
// session's receive window from the same values, so the network
// boundary enforces the same backpressure bound a local session's
// output buffer does.
const (
	DefaultReaders = 1
	DefaultBuffer  = 2
)

// maxBufferedBatches caps the session's decoded-batch output buffer
// (Readers×Buffer), mirroring the dppnet credit-window cap: a deeper
// buffer buys no overlap and only defers backpressure.
const maxBufferedBatches = 1 << 10

func (s Spec) withDefaults() Spec {
	if s.Readers == 0 {
		s.Readers = DefaultReaders
	}
	if s.Buffer == 0 {
		s.Buffer = DefaultBuffer
	}
	return s
}

func (s Spec) validate() error {
	if s.Readers < 0 {
		return fmt.Errorf("dpp: negative reader count %d", s.Readers)
	}
	if s.Buffer < 0 {
		return fmt.Errorf("dpp: negative buffer %d", s.Buffer)
	}
	if s.Follow && s.ShareScans {
		return fmt.Errorf("dpp: Follow and ShareScans are incompatible (the shared scan loop has no open-ended queue)")
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
// Internally the scan is a shared ordered work queue (reader.ScanQueue):
// fill workers claim file indices and decode them in parallel, and one
// assembler merges the results in file order, cutting and converting
// batches exactly as a serial scan would. The worker pool is resizable
// mid-scan (Resize, or the service's AutoScaler); the stream is
// byte-identical to the serial reference regardless of the pool's size
// or resize history.
type Session struct {
	svc    *Service
	id     int64
	cancel context.CancelFunc
	ctx    context.Context
	clock  Clock
	// spec is the defaulted Spec the session was opened with; set once in
	// newSession, read-only afterwards (late worker spawns derive their
	// readers and the queue window from it).
	spec Spec
	// arbitrated records that the session registered with the service's
	// WorkerArbiter and must unregister on release.
	arbitrated bool

	// out is the session's single bounded output buffer; the assembler
	// (or the shared scan loop) feeds it, Next drains it. Closed once the
	// scan ends, with the outcome recorded first.
	out   chan *reader.Batch
	queue *reader.ScanQueue // nil for ShareScans sessions (single scan loop)

	// Follow state: the tailer goroutine watches the catalog and extends
	// the queue; EndFollow cancels it (followCancel), waits for it to
	// exit (followDone), and then finishes the queue — so no Extend can
	// race the Finish. All nil/zero for non-Follow sessions.
	followCancel context.CancelFunc
	followDone   chan struct{}
	endFollow    sync.Once

	wg sync.WaitGroup

	// pmu guards the worker-pool shape. wg.Add for spawned workers
	// happens under pmu, and teardown sets stopped under pmu before
	// wg.Wait, so a racing Resize can never Add past a Wait.
	pmu        sync.Mutex
	target     int // desired worker count (= SchedulerStats.Workers)
	active     int // workers currently running
	stopped    bool
	scaleUps   int64
	scaleDowns int64

	mu    sync.Mutex
	stats reader.Stats
	cache SessionCacheStats
	// consumerStall is the completed blocked time handing batches to the
	// consumer; consumerStallSince is nonzero while the merge is blocked
	// right now, so the live interval is visible to the AutoScaler (a
	// consumer parked forever must read as growing stall, not zero).
	consumerStall      time.Duration
	consumerStallSince time.Time
	firstErr           error
	closed             bool
	done               bool
	// final is the outcome finish reported, io.EOF for a clean scan.
	final error
}

// tailState is the catalog position a Follow session starts tailing
// from: the generation at snapshot time and the publish sequence of the
// last file in the snapshot. Open captures it atomically enough (gen
// before files) that a landing racing the snapshot is seen either in the
// initial plan or by the first WaitChange, never missed.
type tailState struct {
	catalog storage.TailingCatalog
	gen     uint64
	cursor  uint64
}

// newSession plans the scan and starts the fill workers and the
// assembler. Workers begin claiming and decoding files immediately;
// nothing blocks on Open. tail is non-nil exactly for Follow sessions.
func newSession(ctx context.Context, svc *Service, id int64, spec Spec, files []string, tail *tailState) (*Session, error) {
	if spec.ShareScans && svc.cache == nil {
		return nil, fmt.Errorf("dpp: spec requests ShareScans but the service's scan cache is disabled")
	}
	sctx, cancel := context.WithCancel(ctx)
	buffered := spec.Readers * spec.Buffer
	if buffered > maxBufferedBatches {
		buffered = maxBufferedBatches
	}
	s := &Session{
		svc:    svc,
		id:     id,
		cancel: cancel,
		ctx:    sctx,
		clock:  svc.clock,
		spec:   spec,
		out:    make(chan *reader.Batch, buffered),
		target: 1,
	}

	if spec.ShareScans {
		r, err := reader.NewReader(svc.backend, spec.Spec)
		if err != nil {
			cancel()
			return nil, err
		}
		s.wg.Add(1)
		go s.runSharedScan(r, spec.Spec.Fingerprint(), files)
		return s, nil
	}

	asm, err := reader.NewReader(svc.backend, spec.Spec)
	if err != nil {
		cancel()
		return nil, err
	}
	if tail != nil {
		s.queue = reader.NewOpenScanQueue(files, queueWindow(spec, spec.Readers), s.clock.Now)
	} else {
		s.queue = reader.NewScanQueue(files, queueWindow(spec, spec.Readers), s.clock.Now)
	}

	// The queue blocks on condition variables, not channels; this watcher
	// translates context teardown into an Abort that wakes every parked
	// worker. The assembler aborts the queue on exit too, so the watcher
	// is only load-bearing for mid-scan cancellation.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-s.ctx.Done()
		s.queue.Abort()
	}()

	if tail != nil {
		fctx, fcancel := context.WithCancel(sctx)
		s.followCancel = fcancel
		s.followDone = make(chan struct{})
		s.wg.Add(1)
		go s.runTailer(fctx, tail)
	}

	s.pmu.Lock()
	s.target = spec.Readers
	for i := 0; i < spec.Readers; i++ {
		if err := s.spawnWorkerLocked(spec.Spec); err != nil {
			s.pmu.Unlock()
			cancel()
			s.queue.Abort()
			return nil, err
		}
	}
	s.pmu.Unlock()

	s.wg.Add(1)
	go s.runAssembler(asm)

	if svc.autoscale != nil {
		// With an arbiter, the controller's Resize calls become bids:
		// the session registers under its tenant, and the arbiter owns
		// actuation (it may resize this session immediately to fit the
		// budget). Observation still reads this session's own stats.
		var target ScaleTarget = s
		if svc.arbiter != nil {
			svc.arbiter.Register(spec.Tenant, s)
			s.arbitrated = true
			target = &arbitratedTarget{arb: svc.arbiter, tenant: spec.Tenant, sess: s}
		}
		as, err := NewAutoScaler(target, *svc.autoscale)
		if err != nil {
			cancel()
			s.queue.Abort()
			if s.arbitrated {
				svc.arbiter.Unregister(s)
			}
			return nil, err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			as.Run(s.ctx)
		}()
	}
	return s, nil
}

// queueWindow bounds how many files may be claimed (decoding or decoded,
// not yet merged) ahead of the assembler for a pool of n workers: one
// in-flight file per worker, one completed slot to hand over through, and
// the spec's FillAhead prefetch depth — which the queue absorbs now that
// fill workers no longer run their own per-worker pipeline.
func queueWindow(spec Spec, n int) int {
	return n + 1 + spec.FillAhead
}

// spawnWorkerLocked starts one fill worker; the caller holds pmu (which
// makes the wg.Add safe against teardown's Wait) and has already counted
// the worker in target.
func (s *Session) spawnWorkerLocked(rspec reader.Spec) error {
	r, err := reader.NewReader(s.svc.backend, rspec)
	if err != nil {
		return err
	}
	s.active++
	s.wg.Add(1)
	go s.runFillWorker(r)
	return nil
}

// runFillWorker drives one pool worker: claim file indices, fill them,
// deposit results. Between files it checks the scale-down checkpoint —
// a worker told to stop has already been uncounted by shouldStop, so
// only natural exits (queue exhausted, abort, fill error) decrement
// active here.
func (s *Session) runFillWorker(r *reader.Reader) {
	defer s.wg.Done()
	stopped := false
	r.FillQueue(s.ctx, s.queue, func() bool {
		if s.workerShouldStop() {
			stopped = true
			return true
		}
		return false
	})
	if !stopped {
		s.pmu.Lock()
		s.active--
		s.pmu.Unlock()
	}
	s.mu.Lock()
	s.stats.Add(r.Stats())
	s.mu.Unlock()
}

// workerShouldStop atomically decides and accounts one worker's
// scale-down exit, so a pool shrinking by k loses exactly k workers.
func (s *Session) workerShouldStop() bool {
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
// scale-down takes effect at each surplus worker's next between-files
// checkpoint — claims are never abandoned mid-file, which is one half of
// why the stream is identical across resize histories (the other half is
// the ordered merge). On a ShareScans session (single scan loop) Resize
// is a no-op returning 1. Safe for concurrent use; the service's
// AutoScaler is the usual caller.
func (s *Session) Resize(n int) int {
	if n < 1 {
		n = 1
	}
	if s.queue == nil {
		return 1
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
		if err := s.spawnWorkerLocked(s.spec.Spec); err != nil {
			break
		}
	}
	// Resize the claim window under pmu too: concurrent Resize calls
	// (the AutoScaler plus a direct caller) must leave the window sized
	// for whichever target won, never the loser's.
	s.queue.SetWindow(queueWindow(s.spec, n))
	s.pmu.Unlock()
	s.svc.noteScale(up)
	return n
}

// runTailer is a Follow session's catalog watcher: it parks on the
// catalog generation, pulls the files published past its cursor, and
// extends the open scan queue with them in landed order. Exits when its
// context is cancelled — by EndFollow (clean end of the tail) or by
// session teardown.
func (s *Session) runTailer(ctx context.Context, tail *tailState) {
	defer s.wg.Done()
	defer close(s.followDone)
	gen, cursor := tail.gen, tail.cursor
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
		files := make([]string, len(pubs))
		for i, p := range pubs {
			files[i] = p.Path
		}
		cursor = pubs[len(pubs)-1].Seq
		s.queue.Extend(files)
		s.svc.noteExtend(len(files))
		if s.spec.OnExtend != nil {
			s.spec.OnExtend(files)
		}
	}
}

// EndFollow ends a Follow session's tail: the catalog watcher stops, the
// already-observed files drain, the final short batch (if any) flushes,
// and Next returns io.EOF — the stream as a whole is then byte-identical
// to a cold session over the frozen prefix the tail observed. Blocks
// only until the watcher exits. Idempotent; a no-op on non-Follow
// sessions.
func (s *Session) EndFollow() {
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
func (s *Session) Following() bool { return s.followCancel != nil }

// FollowLag reports how many observed files the session has not yet
// merged into its stream — the catalog-to-consumer lag the landing
// metrics export. Zero for non-Follow sessions.
func (s *Session) FollowLag() int {
	if s.followCancel == nil || s.queue == nil {
		return 0
	}
	return s.queue.Len() - s.queue.Pos()
}

// emitOut hands one batch to the consumer through the bounded output
// buffer, charging time spent blocked to the consumer-starvation counter
// — the "scale down" half of the autoscaling signal.
func (s *Session) emitOut(b *reader.Batch) error {
	select {
	case s.out <- b:
		return nil
	default:
	}
	start := s.clock.Now()
	s.mu.Lock()
	s.consumerStallSince = start
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.consumerStall += s.clock.Now().Sub(start)
		s.consumerStallSince = time.Time{}
		s.mu.Unlock()
	}()
	select {
	case s.out <- b:
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

// runAssembler merges deposited files in order into the output stream.
// The channel is closed only after the outcome and stats are recorded,
// so a consumer that observes the close also observes the outcome; the
// trailing Abort wakes workers parked on a full claim window.
func (s *Session) runAssembler(r *reader.Reader) {
	defer s.wg.Done()
	err := r.RunQueue(s.ctx, s.queue, s.emitOut)
	s.mu.Lock()
	if err != nil && s.firstErr == nil && !errors.Is(err, context.Canceled) {
		s.firstErr = err
	}
	s.stats.Add(r.Stats())
	s.mu.Unlock()
	s.queue.Abort()
	close(s.out)
}

// runSharedScan drives a ShareScans session's single scan loop through
// the service's cross-session ScanCache. The emitted batch stream is
// byte-identical to an unshared session's (the cache unit is file-aligned
// and the fingerprint covers every output-relevant spec field); what
// changes is the accounting — a fully cache-hit scan decodes nothing, so
// its RowsDecoded/ReadBytes/ConvertValues/ProcessOps stay zero while
// BatchesProduced and SentBytes still count every batch handed to the
// consumer (the session's egress is real either way).
func (s *Session) runSharedScan(r *reader.Reader, fingerprint string, files []string) {
	defer s.wg.Done()
	var served reader.Stats // egress accounting for cache-hit batches
	var cache SessionCacheStats
	var err error
	if s.spec.FillAhead > 0 {
		// Miss-path prefetch: a producer issues the cache lookups up to
		// FillAhead files ahead of the emit loop, on its own reader so the
		// fetch-side accounting (fill, convert, process for misses) and
		// the emit-side accounting (carry-cut ProduceBatch) stay separable
		// and sum to the inline path's totals.
		var producer *reader.Reader
		producer, err = reader.NewReader(s.svc.backend, s.spec.Spec)
		if err == nil {
			err = s.scanSharedPrefetch(r, producer, fingerprint, files, &served, &cache, s.emitOut)
			s.mu.Lock()
			s.stats.Add(producer.Stats())
			s.mu.Unlock()
		}
	} else {
		err = s.scanShared(r, fingerprint, files, &served, &cache, s.emitOut)
	}
	s.mu.Lock()
	if err != nil && s.firstErr == nil && !errors.Is(err, context.Canceled) {
		s.firstErr = err
	}
	s.stats.Add(r.Stats())
	s.stats.Add(served)
	s.cache.Hits += cache.Hits
	s.cache.Misses += cache.Misses
	s.mu.Unlock()
	close(s.out)
}

// scanShared is the cached twin of reader.Run's consume loop. Files whose
// scan starts on a batch boundary (no carried rows) go through the
// ScanCache as whole file-aligned units; files entered mid-batch cannot
// share batches — their boundaries depend on the carry — so they fill and
// convert locally, exactly as the uncached path would.
func (s *Session) scanShared(r *reader.Reader, fingerprint string, files []string, served *reader.Stats, cache *SessionCacheStats, emit func(*reader.Batch) error) error {
	batchSize := r.BatchSize()
	var carry []datagen.Sample
	var keys []string
	var dense int
	checkSchema := func(file string, fileKeys []string) error {
		if keys == nil {
			return nil
		}
		if len(fileKeys) != len(keys) {
			return fmt.Errorf("dpp: file %q schema mismatch (%d vs %d features)", file, len(fileKeys), len(keys))
		}
		return nil
	}
	for _, f := range files {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		if len(carry) == 0 {
			scan, hit, err := s.svc.cache.Get(s.ctx, f, fingerprint, func(ctx context.Context) (*reader.FileScan, error) {
				return r.ScanFile(ctx, f)
			})
			if err != nil {
				return err
			}
			if hit {
				cache.Hits++
			} else {
				cache.Misses++
				s.svc.demoteRaw(f, fingerprint)
			}
			if err := checkSchema(f, scan.Keys); err != nil {
				return err
			}
			if keys == nil {
				keys, dense = scan.Keys, scan.Dense
			}
			for _, b := range scan.Batches {
				if hit {
					served.BatchesProduced++
					served.SentBytes += int64(b.WireBytes())
				}
				if err := emit(b); err != nil {
					return err
				}
			}
			// Copy the tail: the cached scan is shared and immutable, and
			// the carry slice is appended to below.
			carry = append([]datagen.Sample(nil), scan.Tail...)
			continue
		}
		samples, fileKeys, fileDense, err := r.FillFile(s.ctx, f)
		if err != nil {
			return err
		}
		if err := checkSchema(f, fileKeys); err != nil {
			return err
		}
		if keys == nil {
			keys, dense = fileKeys, fileDense
		}
		carry = append(carry, samples...)
		for len(carry) >= batchSize {
			if err := s.ctx.Err(); err != nil {
				return err
			}
			b, err := r.ProduceBatch(carry[:batchSize], keys, dense)
			if err != nil {
				return err
			}
			if err := emit(b); err != nil {
				return err
			}
			carry = carry[batchSize:]
		}
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if len(carry) > 0 {
		b, err := r.ProduceBatch(carry, keys, dense)
		if err != nil {
			return err
		}
		return emit(b)
	}
	return nil
}

// sharedItem is one prefetched file handed from the shared-scan producer
// to the emit loop: a cache-path scan (aligned entry) or a fallback fill
// (carry-entered file), or the fetch error that ends the stream.
type sharedItem struct {
	file string
	// scan is set for files entered on a batch boundary (the cache path);
	// samples/keys/dense carry a misaligned fallback fill.
	scan    *reader.FileScan
	hit     bool
	samples []datagen.Sample
	keys    []string
	dense   int
	err     error
}

// scanSharedPrefetch is scanShared with the fetch side hoisted onto a
// producer goroutine running up to FillAhead files ahead of the emit
// loop. The producer cannot see the consumer's carry slice, but it does
// not need the rows — only whether each file is entered on a batch
// boundary — so it tracks the carry length arithmetically
// ((len + rows) mod batch size), which by construction matches the
// consumer's actual carry at every file. Lookups therefore hit the
// ScanCache in exactly the inline path's order and alignment split, one
// producer issuing them sequentially (single-flight dedup unchanged),
// and the hit/miss counts are identical; what the prefetch buys is the
// next miss's fill/convert overlapping the current file's emit.
func (s *Session) scanSharedPrefetch(r, producer *reader.Reader, fingerprint string, files []string, served *reader.Stats, cache *SessionCacheStats, emit func(*reader.Batch) error) error {
	batchSize := r.BatchSize()
	pctx, pcancel := context.WithCancel(s.ctx)
	items := make(chan sharedItem, s.spec.FillAhead)
	var pwg sync.WaitGroup
	pwg.Add(1)
	go func() {
		defer pwg.Done()
		defer close(items)
		carryLen := 0
		for _, f := range files {
			item := sharedItem{file: f}
			if carryLen == 0 {
				scan, hit, err := s.svc.cache.Get(pctx, f, fingerprint, func(ctx context.Context) (*reader.FileScan, error) {
					return producer.ScanFile(ctx, f)
				})
				if err != nil {
					item.err = err
				} else {
					// Counting here (not at consume) matches the inline
					// path: a lookup performed is a lookup counted, even if
					// the emit loop exits before draining it. The producer
					// is joined before scanSharedPrefetch returns, so the
					// counters are quiescent when runSharedScan reads them.
					if hit {
						cache.Hits++
					} else {
						cache.Misses++
						s.svc.demoteRaw(f, fingerprint)
					}
					item.scan, item.hit = scan, hit
					carryLen = len(scan.Tail)
				}
			} else {
				samples, keys, dense, err := producer.FillFile(pctx, f)
				if err != nil {
					item.err = err
				} else {
					item.samples, item.keys, item.dense = samples, keys, dense
					carryLen = (carryLen + len(samples)) % batchSize
				}
			}
			select {
			case items <- item:
			case <-pctx.Done():
				return
			}
			if item.err != nil {
				return
			}
		}
	}()
	// The producer parks on the items channel or on pctx; cancelling and
	// waiting here bounds it to this call whatever path exits the loop.
	defer pwg.Wait()
	defer pcancel()

	var carry []datagen.Sample
	var keys []string
	var dense int
	checkSchema := func(file string, fileKeys []string) error {
		if keys == nil || len(fileKeys) == len(keys) {
			return nil
		}
		return fmt.Errorf("dpp: file %q schema mismatch (%d vs %d features)", file, len(fileKeys), len(keys))
	}
	for item := range items {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		if item.err != nil {
			return item.err
		}
		if item.scan != nil {
			if err := checkSchema(item.file, item.scan.Keys); err != nil {
				return err
			}
			if keys == nil {
				keys, dense = item.scan.Keys, item.scan.Dense
			}
			for _, b := range item.scan.Batches {
				if item.hit {
					served.BatchesProduced++
					served.SentBytes += int64(b.WireBytes())
				}
				if err := emit(b); err != nil {
					return err
				}
			}
			carry = append([]datagen.Sample(nil), item.scan.Tail...)
			continue
		}
		if err := checkSchema(item.file, item.keys); err != nil {
			return err
		}
		if keys == nil {
			keys, dense = item.keys, item.dense
		}
		carry = append(carry, item.samples...)
		for len(carry) >= batchSize {
			if err := s.ctx.Err(); err != nil {
				return err
			}
			b, err := r.ProduceBatch(carry[:batchSize], keys, dense)
			if err != nil {
				return err
			}
			if err := emit(b); err != nil {
				return err
			}
			carry = carry[batchSize:]
		}
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	if len(carry) > 0 {
		b, err := r.ProduceBatch(carry, keys, dense)
		if err != nil {
			return err
		}
		return emit(b)
	}
	return nil
}

// Next returns the session's next preprocessed batch. It blocks until a
// batch is buffered, the scan is exhausted (io.EOF), a reader fails (the
// first error), ctx is cancelled (ctx.Err()), or the session is closed
// (ErrClosed). Batches arrive in deterministic order: the single serial
// scan order over the session's file list, at every worker count.
func (s *Session) Next(ctx context.Context) (*reader.Batch, error) {
	select {
	case b, ok := <-s.out:
		if !ok {
			return nil, s.finish()
		}
		s.svc.noteBatch()
		return b, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.ctx.Done():
		s.mu.Lock()
		closed, final := s.closed, s.final
		s.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		if final != nil {
			// The stream already ended and teardown cancelled the session's
			// own context: repeat the recorded outcome.
			return nil, final
		}
		return nil, s.ctx.Err()
	}
}

// finish is reached once the output stream has closed: stop the pool,
// wait for every goroutine, settle the accounting, and report the scan
// outcome. A scan cut short by Close or by job-context cancellation
// reports that, never a clean io.EOF; a reader failure surfaces after
// the serial prefix of batches that preceded it.
func (s *Session) finish() error {
	// Snapshot the job-context state before teardown cancels the session
	// context itself: a clean EOF must not read back its own teardown as
	// a cancellation.
	s.mu.Lock()
	final, closed := s.final, s.closed
	s.mu.Unlock()
	if final != nil {
		// A Next after the end repeats the outcome.
		if closed {
			return ErrClosed
		}
		return final
	}
	ctxErr := s.ctx.Err()
	s.teardown()
	s.mu.Lock()
	err := s.firstErr
	closed = s.closed
	s.mu.Unlock()
	s.release()
	if err == nil {
		if closed {
			err = ErrClosed
		} else if ctxErr != nil {
			err = ctxErr
		} else {
			err = io.EOF
		}
	}
	s.mu.Lock()
	s.final = err
	s.mu.Unlock()
	return err
}

// teardown stops the pool (no further spawns), cancels the session
// context (waking the watcher, the autoscaler, and anything blocked on
// the queue or the output buffer), and waits for every session goroutine
// to exit. Idempotent.
func (s *Session) teardown() {
	s.pmu.Lock()
	s.stopped = true
	s.pmu.Unlock()
	s.cancel()
	if s.queue != nil {
		s.queue.Abort()
	}
	s.wg.Wait()
}

// Close cancels the session's workers, waits for them to exit, and
// releases the session's service slot. Idempotent; always returns nil.
// Batches already returned by Next remain valid — they never alias
// worker state.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.teardown()
	s.release()
	return nil
}

// release gives the session's service slot back exactly once; EOF,
// reader failure, and Close all funnel through it. The session's final
// scheduling telemetry is folded into the service-wide stall counters
// here, so the autoscaling signal stays observable after the sessions
// that produced it are gone.
func (s *Session) release() {
	s.mu.Lock()
	done := s.done
	s.done = true
	errored := s.firstErr != nil
	s.mu.Unlock()
	if !done {
		if s.arbitrated {
			// Leave arbitration before retiring so the departed pool's
			// workers are redistributed to still-running sessions.
			s.svc.arbiter.Unregister(s)
		}
		s.svc.retire(s.id, s.SchedulerStats(), errored)
	}
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
	// Workers is the current desired worker-pool size (1 for ShareScans
	// sessions, which run a single scan loop).
	Workers int
	// ScaleUps and ScaleDowns count Resize calls that grew or shrank the
	// pool.
	ScaleUps, ScaleDowns int64
	// WorkerStall is the total time the ordered merge spent blocked
	// waiting for a fill worker's deposit: the session was starved for
	// reader parallelism.
	WorkerStall time.Duration
	// ConsumerStall is the total time the merge spent blocked handing a
	// finished batch to the consumer (a full output buffer — for remote
	// sessions, ultimately an exhausted dppnet credit window): the
	// consumer was the bottleneck.
	ConsumerStall time.Duration
}

// SchedulerStats snapshots the session's scheduling telemetry; it is the
// observe half of the AutoScaler's ScaleTarget contract.
func (s *Session) SchedulerStats() SchedulerStats {
	var st SchedulerStats
	s.pmu.Lock()
	st.Workers = s.target
	st.ScaleUps = s.scaleUps
	st.ScaleDowns = s.scaleDowns
	s.pmu.Unlock()
	if s.queue != nil {
		st.WorkerStall = s.queue.Stall()
	}
	s.mu.Lock()
	st.ConsumerStall = s.consumerStall
	if !s.consumerStallSince.IsZero() {
		st.ConsumerStall += s.clock.Now().Sub(s.consumerStallSince)
	}
	s.mu.Unlock()
	return st
}

// Stats returns the session's aggregated accounting. The deterministic
// reader counters (bytes, rows, batches, work) are exact and reproducible
// once Next has returned io.EOF or Close has completed; mid-scan it is a
// monotone snapshot of finished workers. The Scheduler block is timing-
// dependent telemetry, not part of the deterministic contract.
func (s *Session) Stats() SessionStats {
	sched := s.SchedulerStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{Reader: s.stats, Cache: s.cache, Scheduler: sched}
}
