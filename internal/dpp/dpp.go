// Package dpp implements the paper's disaggregated Data PreProcessing
// service shape (§2.1): a long-lived Service that many training jobs
// submit DataLoader Specs to, each getting back a Session — a pull-based
// batch iterator — instead of registering a push callback.
//
// Every session executes its table scan the same way: a shared ordered
// work queue (reader.ScanQueue) whose workers claim file indices and scan
// them in parallel — fill, convert and process, handing over each batch as
// it is cut — the reader's one cutter (reader.RunUnits) awaiting them in
// file order and joining them across file boundaries — so a file's first
// batch leaves while most of the file is still unread — and the Shell
// lifecycle around both — multiplexing with every other session over one
// shared storage.Backend.
// Sessions buffer at most Readers×Buffer decoded batches ahead of the
// consumer (backpressure: slow trainers stall their own readers, not the
// service) and tear everything down promptly on context cancellation or
// Close. Batch order is deterministic and worker-count independent: the
// stream is byte-identical to one serial reader.Run over the whole scan
// set at every pool size and across every resize history — which is what
// lets the service resize pools live. With Config.AutoScale set, a
// per-session AutoScaler closes the paper's reader-scaling loop from the
// session's observed worker/consumer starvation.
//
// Sessions may additionally opt into cross-session scan sharing
// (Spec.ShareScans): the Service owns a ScanCache that memoizes decoded,
// deduplicated, preprocessed batches per (file, spec fingerprint, carried
// rows) with single-flight coalescing under a byte budget (an LRU that
// stops evicting when a cyclic scan outgrows it), so N jobs over the same
// data pay for each file's decode once instead of N times. The cache is a
// memo inside the fill workers, not a kind of session: it changes what a
// worker's fill costs and nothing about the session's shape — its pool, its
// resizing, its tailing — or its batch stream. See docs/ARCHITECTURE.md for
// where this sits in the overall pipeline.
package dpp

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// Config wires a Service to its storage tier.
type Config struct {
	// Backend is the shared blob store every session reads through.
	Backend storage.Backend
	// Catalog resolves Spec.Table to its scan set. May be nil if every
	// session supplies an explicit Spec.Files list.
	Catalog storage.Catalog
	// MaxSessions caps concurrently open sessions; 0 means unlimited.
	MaxSessions int
	// ScanCacheBytes bounds the service's cross-session ScanCache, which
	// memoizes decoded batches per (file, spec fingerprint, carried rows)
	// for sessions that opt in via Spec.ShareScans. 0 picks DefaultScanCacheBytes;
	// negative disables the cache entirely (ShareScans sessions are then
	// rejected at Open).
	ScanCacheBytes int64
	// AutoScale, when non-nil, attaches a per-session AutoScaler to every
	// batch session, ShareScans or not: the service resizes each session's
	// worker pool within [MinReaders, MaxReaders] from its observed
	// worker/consumer starvation. Nil keeps every pool at its Spec.Readers
	// size. (File-unit sessions keep a fixed pool: a fleet scales by adding
	// shards.)
	AutoScale *AutoScalerConfig
	// Arbiter, when non-nil (and AutoScale is set), turns each
	// AutoScaler from the final allocator into a bid source: sessions
	// register with the arbiter under their Spec.Tenant, and every
	// resize the controller proposes is routed through WorkerArbiter.Bid
	// so one budget can be fair-shared across all sessions — and, when
	// the same arbiter is wired into several services, across a whole
	// process. front.NewGovernor builds the standard implementation.
	Arbiter WorkerArbiter
	// Clock stamps the sessions' stall accounting and drives AutoScaler
	// ticks. Nil uses the wall clock; tests inject a manual-advance clock
	// for reproducible controller decisions.
	Clock Clock
}

// DefaultScanCacheBytes is the scan-cache budget used when Config leaves
// ScanCacheBytes zero: large enough to hold a few partitions of decoded
// batches at the reproduction's scales, small enough to stay invisible
// next to a training job's own working set.
const DefaultScanCacheBytes = 256 << 20

// Service hosts concurrent preprocessing sessions over shared storage.
// All methods are safe for concurrent use.
type Service struct {
	backend storage.Backend
	catalog storage.Catalog
	max     int
	// cache memoizes file scans across ShareScans sessions; nil when
	// disabled by Config.ScanCacheBytes < 0.
	cache *ScanCache
	// rawCache is the backend's raw-blob tier when the backend is a
	// storage.CachingBackend, else nil. Held so the decoded tier can
	// demote a file's raw bytes once its scan is resident — one file,
	// one tier (the double-caching fix).
	rawCache *storage.CachingBackend
	// autoscale, when non-nil, is the defaulted controller config every
	// batch session gets an AutoScaler from.
	autoscale *AutoScalerConfig
	// arbiter, when non-nil, fair-shares a worker budget across the
	// autoscaled sessions (Config.Arbiter).
	arbiter WorkerArbiter
	clock   Clock

	mu     sync.Mutex
	closed bool
	nextID int64
	// sessions are the open sessions of both kinds — batch sessions and
	// file-unit sessions (fleet shards) share the MaxSessions cap.
	sessions map[int64]liveSession
	// reserved counts admissions granted but not yet registered, so the
	// MaxSessions cap holds across concurrent Opens.
	reserved int

	// Service-level accounting, kept as internal/metrics counters so the
	// hot paths (noteBatch on every served batch, noteScale on every
	// resize) never touch mu and an observability scraper reads them
	// without test hooks. The stall counters accumulate retired sessions'
	// final worker/consumer starvation; Stats folds live sessions in.
	opened          metrics.Counter
	batchesServed   metrics.Counter
	scaleUps        metrics.Counter
	scaleDowns      metrics.Counter
	sessionErrors   metrics.Counter
	workerStallNS   metrics.Counter
	consumerStallNS metrics.Counter
	followExtended  metrics.Counter
}

// New validates the config and builds an empty service.
func New(cfg Config) (*Service, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("dpp: config needs a storage backend")
	}
	if cfg.MaxSessions < 0 {
		return nil, fmt.Errorf("dpp: negative session cap %d", cfg.MaxSessions)
	}
	var cache *ScanCache
	if cfg.ScanCacheBytes >= 0 {
		budget := cfg.ScanCacheBytes
		if budget == 0 {
			budget = DefaultScanCacheBytes
		}
		cache = NewScanCache(budget)
	}
	clock := cfg.Clock
	if clock == nil {
		clock = SystemClock{}
	}
	var autoscale *AutoScalerConfig
	if cfg.AutoScale != nil {
		ac := *cfg.AutoScale
		if ac.Clock == nil {
			ac.Clock = clock
		}
		ac = ac.withDefaults()
		if err := ac.validate(); err != nil {
			return nil, err
		}
		autoscale = &ac
	}
	svc := &Service{
		backend:   cfg.Backend,
		catalog:   cfg.Catalog,
		max:       cfg.MaxSessions,
		cache:     cache,
		autoscale: autoscale,
		arbiter:   cfg.Arbiter,
		clock:     clock,
		sessions:  make(map[int64]liveSession),
	}
	if cb, ok := cfg.Backend.(*storage.CachingBackend); ok {
		svc.rawCache = cb
	}

	// Cache coherence with retention: when the catalog announces dropped
	// files, evict them from the decoded tier and — if the backend is the
	// caching tier — from the raw-blob tier too. Without this, a warm
	// service keeps serving decoded batches for data retention already
	// destroyed (the stale-cache-after-retention bug).
	if notifier, ok := cfg.Catalog.(storage.InvalidationNotifier); ok {
		scans := svc.cache
		blobs := svc.rawCache
		if scans != nil || blobs != nil {
			notifier.OnInvalidate(func(paths []string) {
				if scans != nil {
					scans.InvalidateFiles(paths)
				}
				if blobs != nil {
					blobs.InvalidateFiles(paths)
				}
			})
		}
	}
	return svc, nil
}

// demoteRaw releases file's raw bytes from the caching backend once its
// decoded scan is resident in the ScanCache: the decoded form is the one
// sessions reuse, and holding both would charge the same file to two
// byte budgets. A scan that was computed but not retained (oversized,
// doomed) keeps its raw bytes cached — the next decode still wants them.
func (s *Service) demoteRaw(key ScanKey) {
	if s.rawCache == nil || s.cache == nil {
		return
	}
	if s.cache.Contains(key) {
		s.rawCache.Demote(key.File)
	}
}

// ScanCache returns the service's cross-session scan cache, or nil when
// disabled. Exposed for operational introspection (hit ratios, resident
// entries); sessions use it automatically via Spec.ShareScans.
func (s *Service) ScanCache() *ScanCache { return s.cache }

// Stats is a snapshot of service-level accounting.
type Stats struct {
	// SessionsOpened counts every session ever opened.
	SessionsOpened int64
	// ActiveSessions counts sessions currently open.
	ActiveSessions int
	// BatchesServed counts batches handed out across all sessions.
	BatchesServed int64
	// SessionErrors counts sessions that ended with a reader or scan
	// error (clean EOFs and client-initiated closes are not errors).
	SessionErrors int64
	// Cache is the cross-session scan cache's aggregate accounting;
	// zero-valued when the cache is disabled.
	Cache ScanCacheStats
	// Scheduler aggregates worker-pool resizes across every session —
	// the service-level view of autoscaling activity (sessions resized
	// directly via Session.Resize count too).
	Scheduler ServiceSchedulerStats
	// Follow is the live-tail activity: open Follow sessions, their
	// observed-but-unmerged backlog, and the files extended into their
	// plans since the service started.
	Follow FollowStats
}

// FollowStats is the service-wide view of live tailing.
type FollowStats struct {
	// Sessions counts currently open Follow sessions.
	Sessions int
	// LagFiles sums, over open Follow sessions, files observed from the
	// catalog but not yet merged into the session's stream.
	LagFiles int
	// ExtendedFiles counts files extended into Follow scan plans since
	// the service started (monotone).
	ExtendedFiles int64
}

// ServiceSchedulerStats is the service-wide scaling activity.
type ServiceSchedulerStats struct {
	// ScaleUps and ScaleDowns count pool resizes across all sessions.
	ScaleUps, ScaleDowns int64
	// WorkerStall and ConsumerStall aggregate every session's starvation
	// telemetry — retired sessions' final counters plus live sessions'
	// current ones — so the controller's input signal is observable
	// service-wide (an operator's /metrics view of why pools resize),
	// not only per session in tests. Timing telemetry, not part of the
	// deterministic contract.
	WorkerStall, ConsumerStall time.Duration
}

// Stats returns a snapshot of the service accounting. The stall fields
// mix retired-session totals with live-session reads taken after the
// session list is snapshotted, so they are approximate at any instant
// (exact once the service is quiescent); every other counter is exact.
func (s *Service) Stats() Stats {
	var cache ScanCacheStats
	if s.cache != nil {
		cache = s.cache.Stats()
	}
	live := s.liveSessions()

	sched := ServiceSchedulerStats{
		ScaleUps:      s.scaleUps.Value(),
		ScaleDowns:    s.scaleDowns.Value(),
		WorkerStall:   time.Duration(s.workerStallNS.Value()),
		ConsumerStall: time.Duration(s.consumerStallNS.Value()),
	}
	follow := FollowStats{ExtendedFiles: s.followExtended.Value()}
	for _, sess := range live {
		st := sess.SchedulerStats()
		sched.WorkerStall += st.WorkerStall
		sched.ConsumerStall += st.ConsumerStall
		if sess.Following() {
			follow.Sessions++
			follow.LagFiles += sess.FollowLag()
		}
	}

	return Stats{
		SessionsOpened: s.opened.Value(),
		ActiveSessions: len(live),
		BatchesServed:  s.batchesServed.Value(),
		SessionErrors:  s.sessionErrors.Value(),
		Cache:          cache,
		Scheduler:      sched,
		Follow:         follow,
	}
}

// liveSession is what the service needs of an open session, whatever it
// yields: to close it, and to fold its telemetry into Stats.
type liveSession interface {
	Close() error
	SchedulerStats() SchedulerStats
	Following() bool
	FollowLag() int
}

// liveSessions snapshots the registry.
func (s *Service) liveSessions() []liveSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := make([]liveSession, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	return live
}

// plan defaults and validates a spec and resolves its scan set: the
// explicit Files list, else the catalog's files for Table. (A Follow
// session plans from the catalog's publish order instead; see Open.)
func (s *Service) plan(spec Spec) (Spec, []string, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return spec, nil, err
	}
	if spec.ShareScans && s.cache == nil {
		return spec, nil, fmt.Errorf("dpp: spec requests ShareScans but the service's scan cache is disabled")
	}
	if spec.Files != nil || spec.Follow {
		return spec, spec.Files, nil
	}
	if s.catalog == nil {
		return spec, nil, fmt.Errorf("dpp: service has no catalog and spec %q names no files", spec.Table)
	}
	files, err := s.catalog.AllFiles(spec.Table)
	return spec, files, err
}

// admit is the one admission path: it reserves a slot atomically with the
// cap/closed checks, runs open outside the lock, registers the session
// under the same lock once it exists, and gives the slot back on any
// failure — concurrent opens of either kind cannot overshoot the cap and
// a racing Close cannot strand a live session.
func admit[S liveSession](s *Service, open func(id int64) (S, error)) (S, error) {
	var none S
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return none, fmt.Errorf("dpp: service closed")
	}
	if s.max > 0 && len(s.sessions)+s.reserved >= s.max {
		s.mu.Unlock()
		return none, fmt.Errorf("dpp: session cap %d reached", s.max)
	}
	s.reserved++
	s.nextID++
	id := s.nextID
	s.mu.Unlock()

	sess, err := open(id)
	s.mu.Lock()
	s.reserved--
	if err != nil {
		s.mu.Unlock()
		return none, err
	}
	if s.closed {
		s.mu.Unlock()
		sess.Close()
		return none, fmt.Errorf("dpp: service closed")
	}
	s.sessions[id] = sess
	s.opened.Inc()
	s.mu.Unlock()
	return sess, nil
}

// Open admits a new session for one training job. The session's scan is
// planned immediately and its reader workers start filling their bounded
// buffers right away. Cancelling ctx — the job's context — tears the
// session down as if Close had been called; the service's other sessions
// are unaffected.
func (s *Service) Open(ctx context.Context, spec Spec) (*Session, error) {
	spec, files, err := s.plan(spec)
	if err != nil {
		return nil, err
	}
	var tail *tailState
	if spec.Follow {
		// A Follow session plans over the publish-order snapshot (landed
		// order, robust to retention shifting the hour-ordered view) and
		// remembers the generation and last publish sequence it saw; the
		// tailer resumes from exactly there. Generation is read before the
		// snapshot so a landing racing Open is observed by the snapshot or
		// by the first WaitChange — never missed.
		tc, ok := s.catalog.(storage.TailingCatalog)
		if !ok {
			return nil, fmt.Errorf("dpp: spec requests Follow but the service catalog cannot tail")
		}
		gen := tc.Generation()
		pubs, err := tc.PublishedFiles(spec.Table, 0)
		if err != nil {
			return nil, err
		}
		files = make([]string, len(pubs))
		var cursor uint64
		for i, p := range pubs {
			files[i] = p.Path
			cursor = p.Seq
		}
		tail = &tailState{catalog: tc, gen: gen, cursor: cursor}
	}
	return admit(s, func(id int64) (*Session, error) {
		return newSession(ctx, s, id, spec, files, tail)
	})
}

// Close shuts the service down, cancelling every open session and
// rejecting future Opens. Safe to call more than once.
func (s *Service) Close() error {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	s.mu.Unlock()
	if closed {
		return nil
	}
	for _, sess := range s.liveSessions() {
		sess.Close()
	}
	return nil
}

func (s *Service) noteBatch() { s.batchesServed.Inc() }

// noteExtend counts files extended into Follow sessions' scan plans.
func (s *Service) noteExtend(n int) { s.followExtended.Add(int64(n)) }

func (s *Service) noteScale(up bool) {
	if up {
		s.scaleUps.Inc()
	} else {
		s.scaleDowns.Inc()
	}
}

// retire removes a finished session and folds its final scheduling
// telemetry into the service-wide counters, so stall accounting survives
// the session it was measured on. Called exactly once per session (the
// release path guards it).
func (s *Service) retire(id int64, sched SchedulerStats, errored bool) {
	s.workerStallNS.Add(int64(sched.WorkerStall))
	s.consumerStallNS.Add(int64(sched.ConsumerStall))
	if errored {
		s.sessionErrors.Inc()
	}
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}
