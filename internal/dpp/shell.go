package dpp

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/reader"
)

// Shell is the lifecycle every locally assembled stream shares, written
// once: a bounded output buffer whose hand-off charges consumer stall, the
// first-error rule, "close out only after the outcome is recorded", and
// Pull / finish / teardown / Close / release. The one session core embeds
// it — over batches in a Session, over file units in a UnitSession — and
// dppshard's fleet session and dppnet's remote session each hold one over
// the batches their cutter cuts; what differs between them is only what
// feeds out.
type Shell[T any] struct {
	// Pool reports the kind's worker-pool telemetry. Release runs exactly
	// once when the stream ends — EOF, failure or Close — with the final
	// scheduling telemetry and whether the scan failed: a service-hosted
	// session gives its slot back there. Set both while opening, before the
	// stream is handed to its consumer.
	Pool    func() SchedulerStats
	Release func(sched SchedulerStats, errored bool)

	clock  Clock
	ctx    context.Context
	cancel context.CancelFunc

	// out is the session's single bounded output buffer: the scan feeds it
	// through Emit, Pull drains it. Closed by Settle, once, after the
	// outcome is recorded.
	out chan T
	wg  sync.WaitGroup

	// halt wakes whatever the kind parks outside the context (a queue's or
	// a merge's condition variables) and stops a resizable pool from
	// growing; nil when the kind has nothing of the sort.
	halt func()

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

// Open gives the shell a context derived from the job's, the clock that
// stamps its stall accounting, and an output buffer of the given depth.
func (s *Shell[T]) Open(ctx context.Context, clock Clock, buffered int) {
	s.clock = clock
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.out = make(chan T, buffered)
}

// Ctx is the stream's own context: cancelled by teardown, and by the job
// context it derives from.
func (s *Shell[T]) Ctx() context.Context { return s.ctx }

// Go runs f on a goroutine teardown waits for. A kind that adds goroutines
// mid-stream orders Go against its halt (under the lock halt takes, after
// checking the flag halt sets), so teardown never waits past an add.
func (s *Shell[T]) Go(f func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
}

// HaltOn installs the kind's halt and starts the watcher that runs it when
// the context ends: queues and merges block on condition variables, not
// channels, so cancellation has to be translated into an abort that wakes
// every parked worker. Settle halts too, so the watcher is only
// load-bearing for mid-scan cancellation.
func (s *Shell[T]) HaltOn(halt func()) {
	s.halt = halt
	s.Go(func() {
		<-s.ctx.Done()
		halt()
	})
}

// Emit hands one item to the consumer through the bounded output buffer,
// charging time spent blocked to the consumer-starvation counter — the
// "scale down" half of the autoscaling signal, and what a credit-starved
// remote consumer shows up as.
func (s *Shell[T]) Emit(v T) error {
	select {
	case s.out <- v:
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
	case s.out <- v:
		return nil
	case <-s.ctx.Done():
		return s.ctx.Err()
	}
}

// account folds one finished goroutine's accounting into the session's: a
// fill worker's readers and cache lookups at its exit, the scan
// goroutine's at Settle.
func (s *Shell[T]) account(cache SessionCacheStats, stats ...reader.Stats) {
	s.mu.Lock()
	for _, st := range stats {
		s.stats.Add(st)
	}
	s.cache.Hits += cache.Hits
	s.cache.Misses += cache.Misses
	s.mu.Unlock()
}

// Settle ends the scan: it records the outcome (the session's own
// teardown is not an error) and the scan goroutine's accounting, wakes the
// workers, and only then closes out, so a consumer that observes the close
// also observes the outcome.
func (s *Shell[T]) Settle(err error, stats ...reader.Stats) {
	s.account(SessionCacheStats{}, stats...)
	s.mu.Lock()
	if err != nil && s.firstErr == nil && !errors.Is(err, context.Canceled) {
		s.firstErr = err
	}
	s.mu.Unlock()
	if s.halt != nil {
		s.halt()
	}
	close(s.out)
}

// Pull returns the next item. It blocks until one is buffered, the scan is
// exhausted (io.EOF), the scan fails (the first error, after the in-order
// prefix that preceded it), ctx is cancelled (ctx.Err()), or the session
// is closed (ErrClosed).
func (s *Shell[T]) Pull(ctx context.Context) (T, error) {
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
// serial prefix that preceded it. Once Close has begun, it owns teardown
// and release: a Pull that raced it to the closed out reports ErrClosed
// and waits for nothing.
func (s *Shell[T]) finish() error {
	s.mu.Lock()
	final, closed := s.final, s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if final != nil {
		// A Pull after the end repeats the outcome.
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
func (s *Shell[T]) teardown() {
	if s.halt != nil {
		s.halt()
	}
	s.cancel()
	s.wg.Wait()
}

// Close cancels the session's workers, waits for them to exit, and
// releases the session's service slot — a worker computing a shared scan
// that other sessions are reading exits when that file's scan ends.
// Idempotent; always returns nil.
// Items already returned remain valid — they never alias worker state.
func (s *Shell[T]) Close() error {
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

// release runs the Release hook exactly once; EOF, scan failure, and Close
// all funnel through it. The session's final scheduling telemetry goes to
// the hook (a service folds it into its service-wide stall counters), so
// the autoscaling signal stays observable after the sessions that produced
// it are gone.
func (s *Shell[T]) release() {
	s.mu.Lock()
	done := s.done
	s.done = true
	errored := s.firstErr != nil
	s.mu.Unlock()
	if !done && s.Release != nil {
		s.Release(s.SchedulerStats(), errored)
	}
}

// SchedulerStats snapshots the session's scheduling telemetry; it is the
// observe half of the AutoScaler's ScaleTarget contract.
func (s *Shell[T]) SchedulerStats() SchedulerStats {
	st := s.Pool()
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
// once the stream has returned io.EOF or Close has completed; mid-scan it
// is a monotone snapshot of finished workers. The Scheduler block is
// timing-dependent telemetry, not part of the deterministic contract.
func (s *Shell[T]) Stats() SessionStats {
	sched := s.SchedulerStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return SessionStats{Reader: s.stats, Cache: s.cache, Scheduler: sched}
}
