package dpp

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/reader"
)

// shell is the lifecycle every session kind shares, written once: a
// bounded output buffer whose hand-off charges consumer stall, the
// first-error rule, "close out only after the outcome is recorded", and
// next / finish / teardown / Close / release. Session embeds it over
// batches, UnitSession over file units; what differs between them is only
// what feeds out.
type shell[T any] struct {
	svc    *Service
	id     int64
	ctx    context.Context
	cancel context.CancelFunc
	// spec is the defaulted Spec the session was opened with; read-only.
	spec Spec

	// out is the session's single bounded output buffer: the scan feeds it
	// through emit, next drains it. Closed by settle, once, after the
	// outcome is recorded.
	out chan T
	wg  sync.WaitGroup

	// halt wakes whatever the kind parks outside the context (a queue's or
	// a merge's condition variables) and stops a resizable pool from
	// growing; pool reports the kind's worker-pool telemetry; leave undoes
	// what open registered outside the service. Each is nil when the kind
	// has nothing of the sort — a ShareScans session is one scan loop.
	halt  func()
	pool  func() SchedulerStats
	leave func()

	mu    sync.Mutex
	stats reader.Stats
	cache SessionCacheStats
	// consumerStall is the completed blocked time handing items to the
	// consumer; consumerStallSince is nonzero while emit is blocked right
	// now, so the live interval is visible to the AutoScaler (a consumer
	// parked forever must read as growing stall, not zero).
	consumerStall      time.Duration
	consumerStallSince time.Time
	firstErr           error
	closed             bool
	done               bool
	// final is the outcome finish reported, io.EOF for a clean scan.
	final error
}

// open binds the shell to its service slot and gives it a context derived
// from the job's and an output buffer of the given depth.
func (s *shell[T]) open(ctx context.Context, svc *Service, id int64, spec Spec, buffered int) {
	s.svc, s.id, s.spec = svc, id, spec
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.out = make(chan T, buffered)
}

// haltOn installs the kind's halt and starts the watcher that runs it when
// the context ends: queues and merges block on condition variables, not
// channels, so cancellation has to be translated into an abort that wakes
// every parked worker. settle halts too, so the watcher is only
// load-bearing for mid-scan cancellation.
func (s *shell[T]) haltOn(halt func()) {
	s.halt = halt
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		<-s.ctx.Done()
		halt()
	}()
}

// emit hands one item to the consumer through the bounded output buffer,
// charging time spent blocked to the consumer-starvation counter — the
// "scale down" half of the autoscaling signal, and what a credit-starved
// remote consumer shows up as.
func (s *shell[T]) emit(v T) error {
	select {
	case s.out <- v:
		return nil
	default:
	}
	start := s.svc.clock.Now()
	s.mu.Lock()
	s.consumerStallSince = start
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.consumerStall += s.svc.clock.Now().Sub(start)
		s.consumerStallSince = time.Time{}
		s.mu.Unlock()
	}()
	select {
	case s.out <- v:
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

// addStats folds one finished reader's accounting into the session's.
func (s *shell[T]) addStats(st reader.Stats) {
	s.mu.Lock()
	s.stats.Add(st)
	s.mu.Unlock()
}

// settle ends the scan: it records the outcome (the session's own
// teardown is not an error) and the scan goroutine's accounting, wakes the
// workers, and only then closes out, so a consumer that observes the close
// also observes the outcome.
func (s *shell[T]) settle(err error, cache SessionCacheStats, stats ...reader.Stats) {
	s.mu.Lock()
	if err != nil && s.firstErr == nil && !errors.Is(err, context.Canceled) {
		s.firstErr = err
	}
	for _, st := range stats {
		s.stats.Add(st)
	}
	s.cache.Hits += cache.Hits
	s.cache.Misses += cache.Misses
	s.mu.Unlock()
	if s.halt != nil {
		s.halt()
	}
	close(s.out)
}

// next returns the next item. It blocks until one is buffered, the scan is
// exhausted (io.EOF), the scan fails (the first error, after the in-order
// prefix that preceded it), ctx is cancelled (ctx.Err()), or the session
// is closed (ErrClosed).
func (s *shell[T]) next(ctx context.Context) (T, error) {
	var zero T
	select {
	case v, ok := <-s.out:
		if !ok {
			return zero, s.finish()
		}
		return v, nil
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-s.ctx.Done():
		s.mu.Lock()
		closed, final := s.closed, s.final
		s.mu.Unlock()
		if closed {
			return zero, ErrClosed
		}
		if final != nil {
			// The stream already ended and teardown cancelled the session's
			// own context: repeat the recorded outcome.
			return zero, final
		}
		return zero, s.ctx.Err()
	}
}

// finish is reached once the output stream has closed: stop the workers,
// wait for every goroutine, settle the accounting, and report the scan
// outcome. A scan cut short by Close or by job-context cancellation
// reports that, never a clean io.EOF; a reader failure surfaces after the
// serial prefix that preceded it.
func (s *shell[T]) finish() error {
	s.mu.Lock()
	final, closed := s.final, s.closed
	s.mu.Unlock()
	if final != nil {
		// A next after the end repeats the outcome.
		if closed {
			return ErrClosed
		}
		return final
	}
	// Snapshot the job-context state before teardown cancels the session
	// context itself: a clean EOF must not read back its own teardown as
	// a cancellation.
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

// teardown stops the workers, cancels the session context (waking the
// watcher, the autoscaler, and anything blocked on the output buffer), and
// waits for every session goroutine to exit. Idempotent.
func (s *shell[T]) teardown() {
	if s.halt != nil {
		s.halt()
	}
	s.cancel()
	s.wg.Wait()
}

// Close cancels the session's workers, waits for them to exit, and
// releases the session's service slot. Idempotent; always returns nil.
// Items already returned remain valid — they never alias worker state.
func (s *shell[T]) Close() error {
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

// release gives the session's service slot back exactly once; EOF, scan
// failure, and Close all funnel through it. The session's final
// scheduling telemetry is folded into the service-wide stall counters
// here, so the autoscaling signal stays observable after the sessions
// that produced it are gone.
func (s *shell[T]) release() {
	s.mu.Lock()
	done := s.done
	s.done = true
	errored := s.firstErr != nil
	s.mu.Unlock()
	if done {
		return
	}
	if s.leave != nil {
		s.leave()
	}
	s.svc.retire(s.id, s.SchedulerStats(), errored)
}

// SchedulerStats snapshots the session's scheduling telemetry; it is the
// observe half of the AutoScaler's ScaleTarget contract.
func (s *shell[T]) SchedulerStats() SchedulerStats {
	st := SchedulerStats{Workers: 1}
	if s.pool != nil {
		st = s.pool()
	}
	s.mu.Lock()
	st.ConsumerStall = s.consumerStall
	if !s.consumerStallSince.IsZero() {
		st.ConsumerStall += s.svc.clock.Now().Sub(s.consumerStallSince)
	}
	s.mu.Unlock()
	return st
}

// Stats returns the session's aggregated accounting. The deterministic
// reader counters (bytes, rows, batches, work) are exact and reproducible
// once the stream has returned io.EOF or Close has completed; mid-scan it
// is a monotone snapshot of finished workers. The Scheduler block is
// timing-dependent telemetry, not part of the deterministic contract.
func (s *shell[T]) Stats() SessionStats {
	sched := s.SchedulerStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{Reader: s.stats, Cache: s.cache, Scheduler: sched}
}

// Following and FollowLag are the follow state of a session that does not
// tail; Session overrides them.
func (s *shell[T]) Following() bool { return false }
func (s *shell[T]) FollowLag() int  { return 0 }
