package reader

import (
	"sync"
	"time"
)

// OrderedMerge is the deposit-by-index merge discipline shared by
// ScanQueue (a resizable worker pool filling one file list) and the
// sharded fleet multiplexer (dppshard, N remote shards each producing a
// deterministic subset of one file list): producers complete slots in
// any order and any interleaving, a single consumer awaits them
// strictly in index order, and a sliding window over the consumer's
// position bounds how far producers may run ahead — the memory bound
// and the backpressure channel in one mechanism.
//
// Producers acquire indices one of two ways. ScanQueue's claim hands out
// the next unclaimed index (interchangeable workers pulling from a shared
// frontier, when they have no stripe of a claimed file to take).
// WaitWindow blocks until a caller-chosen
// index enters the window (dppshard's shape: each producer's index
// sequence is fixed by routing, so there is nothing to claim — only
// backpressure to obey). Both respect the same window, so a consumer
// paired with either kind of producer holds at most window slots of
// undelivered results.
//
// All methods are safe for concurrent use.
type OrderedMerge[T any] struct {
	n int // slot count; indices are [0, n)
	// now stamps blocking intervals for the consumer-starvation counter;
	// injectable so controller tests can run on a manual clock.
	now func() time.Time

	mu sync.Mutex
	// cond is the consumer's wait (Await, Wait), work the producers' (claim,
	// park, WaitWindow): a producer's change to the work producers share
	// (note) wakes no consumer, whose wake lands it on the waker's P behind
	// a fill that computes for milliseconds without yielding.
	cond    *sync.Cond
	work    *sync.Cond
	next    int // next index claim will hand out
	base    int // next index Await will deliver
	window  int // producers may hold indices in [base, base+window)
	results map[int]T
	aborted bool
	// open marks the merge open-ended: reaching the slot count is not the
	// end of the stream, only the end of what has landed so far. claim,
	// WaitWindow, and Await park there until Extend adds slots or Finish
	// closes the merge. This is the reader half of a Follow session: the
	// file plan grows while the scan runs.
	open bool

	stall time.Duration // completed time the consumer spent blocked on producers, in Await or Wait
	// awaitSince is nonzero while the consumer is blocked right now; Stall
	// folds the live interval in so a controller watching a wedged merge
	// sees the starvation grow, not a frozen counter.
	awaitSince time.Time
}

// NewOrderedMerge builds a merge over n slots with the given window
// (clamped to at least 1). A nil now falls back to time.Now.
func NewOrderedMerge[T any](n, window int, now func() time.Time) *OrderedMerge[T] {
	if window < 1 {
		window = 1
	}
	if now == nil {
		now = time.Now
	}
	m := &OrderedMerge[T]{n: n, now: now, window: window, results: make(map[int]T)}
	m.cond = sync.NewCond(&m.mu)
	m.work = sync.NewCond(&m.mu)
	return m
}

// NewOpenOrderedMerge builds an open-ended merge: the initial n slots
// are only a prefix, and producers/consumer park at the end of the known
// slots instead of finishing, until Extend appends more or Finish
// declares the set complete.
func NewOpenOrderedMerge[T any](n, window int, now func() time.Time) *OrderedMerge[T] {
	m := NewOrderedMerge[T](n, window, now)
	m.open = true
	return m
}

// Len reports the current slot count (under Extend it grows; read it as
// "slots known so far" on an open merge).
func (m *OrderedMerge[T]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Pos reports the consumer's position: the next index Await will
// deliver. Len() - Pos() is the backlog of slots not yet merged — on a
// tailing scan, the landing-to-consumer lag.
func (m *OrderedMerge[T]) Pos() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base
}

// Extend appends k slots to an open merge, waking producers and the
// consumer parked at the old end. Returns the new slot count. Calling
// Extend after Finish (or on a merge built closed) is a programmer
// error but harmless: the slots are appended and consumed normally.
func (m *OrderedMerge[T]) Extend(k int) int {
	m.mu.Lock()
	m.n += k
	n := m.n
	m.mu.Unlock()
	m.cond.Broadcast()
	m.work.Broadcast()
	return n
}

// Finish closes an open merge: no further Extend is coming, so parked
// producers and the consumer run out the remaining slots and then get
// the ordinary end-of-set ok=false. Idempotent.
func (m *OrderedMerge[T]) Finish() {
	m.mu.Lock()
	m.open = false
	m.mu.Unlock()
	m.cond.Broadcast()
	m.work.Broadcast()
}

// claim hands the caller the next unclaimed index, blocking while the
// window is full, unless other work comes first: other, called with the
// merge's lock held each time the claim looks, reports work the caller has
// taken instead (took: claim returns idx -1) or work about to appear that
// holds the claim back (wait: park for a wake). claimed runs with the lock
// held on the index handed out. ok is false once the indices are exhausted
// or the merge is aborted; a caller handed an index must eventually Deposit
// it (claims are never reassigned, so an abandoned claim would wedge the
// consumer).
func (m *OrderedMerge[T]) claim(other func() (took, wait bool), claimed func(idx int)) (idx int, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.aborted {
			return 0, false
		}
		took, wait := other()
		switch {
		case took:
			return -1, true
		case wait:
		case m.next >= m.n:
			if !m.open {
				return 0, false
			}
			// open merge: park for Extend or Finish
		case m.next < m.base+m.window:
			idx = m.next
			m.next++
			claimed(idx)
			return idx, true
		}
		m.work.Wait()
	}
}

// park blocks, with the merge's lock held, until ready reports true: a
// producer's wait for other producers, which only their wakes end (note) —
// an Abort wakes it too, for ready to see. It is no wait of the consumer's,
// so it charges nothing to Stall.
func (m *OrderedMerge[T]) park(ready func() bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !ready() {
		m.work.Wait()
	}
}

// WaitWindow blocks until idx is inside the claim window — the
// backpressure gate for producers whose index sequence is fixed in
// advance rather than claimed. Returns false when the merge aborts or
// idx is out of range; true means the producer may fill the slot now.
// Indices at or behind the consumer's position are immediately
// admissible (their window check is vacuous).
func (m *OrderedMerge[T]) WaitWindow(idx int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.aborted {
			return false
		}
		if idx >= m.n {
			if !m.open {
				return false
			}
			m.work.Wait() // open merge: park for Extend or Finish
			continue
		}
		if idx < m.base+m.window {
			return true
		}
		m.work.Wait()
	}
}

// Deposit publishes a completed slot and wakes the consumer.
func (m *OrderedMerge[T]) Deposit(idx int, v T) {
	m.mu.Lock()
	m.results[idx] = v
	m.mu.Unlock()
	m.cond.Broadcast()
}

// starve and settle bracket the consumer's parking on a producer, with the
// merge's lock held: starve stamps the start of a block (once per block),
// settle folds a finished block into stall.
func (m *OrderedMerge[T]) starve() {
	if m.awaitSince.IsZero() {
		m.awaitSince = m.now()
	}
}

func (m *OrderedMerge[T]) settle() {
	if !m.awaitSince.IsZero() {
		m.stall += m.now().Sub(m.awaitSince)
		m.awaitSince = time.Time{}
	}
}

// Await returns slot results strictly in index order: the call pattern
// is Await(0), Await(1), ... Each call blocks until that index has been
// deposited; ok is false when the merge is aborted or idx is past the
// slot count. Time spent blocked accumulates into Stall — the
// producer-starvation signal autoscaling consumes.
func (m *OrderedMerge[T]) Await(idx int) (v T, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.settle()
	for {
		if m.aborted {
			return v, false
		}
		if idx >= m.n {
			if !m.open {
				return v, false
			}
			// Tail wait on an open merge: nothing has landed at idx yet.
			// That is landing lag, not producer starvation — it must not
			// feed the Stall counter the autoscaler reads, or a quiet
			// landing path would look like a starved worker pool.
			m.settle()
			m.cond.Wait()
			continue
		}
		if r, have := m.results[idx]; have {
			delete(m.results, idx)
			m.base = idx + 1
			m.work.Broadcast() // the window slid forward
			return r, true
		}
		m.starve()
		m.cond.Wait()
	}
}

// Update runs f with the merge's lock held and wakes the consumer: how a
// producer publishes progress inside a slot it has already deposited (a
// file's next piece, to the consumer reading that file in Wait). ok is
// false once the merge is aborted: no consumer is left to see the progress.
func (m *OrderedMerge[T]) Update(f func()) (ok bool) { return m.signal(m.cond, f) }

// note runs f with the merge's lock held and wakes the producers parked in
// a claim or park, never the consumer: how a producer publishes a change in
// the work producers share (ScanQueue's open files). f runs after an abort
// too, so a producer's own bookkeeping still reaches those parked.
func (m *OrderedMerge[T]) note(f func()) { m.signal(m.work, f) }

// signal runs f with the merge's lock held and wakes those parked on c,
// reporting whether the merge has not aborted.
func (m *OrderedMerge[T]) signal(c *sync.Cond, f func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f()
	c.Broadcast()
	return !m.aborted
}

// live reports whether the merge has not aborted, waking nobody.
func (m *OrderedMerge[T]) live() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.aborted
}

// Wait parks the consumer until ready — called with the merge's lock held,
// over state producers change in Update, and free to take what it finds —
// reports true; ok is false when the merge aborts first. The consumer is
// waiting on a producer exactly as it does in Await, so the time parked
// accumulates into Stall the same way.
func (m *OrderedMerge[T]) Wait(ready func() bool) (ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	defer m.settle()
	for !ready() {
		if m.aborted {
			return false
		}
		m.starve()
		m.cond.Wait()
	}
	return true
}

// SetWindow resizes the window (clamped to at least 1), waking
// producers the wider window unblocks. Shrinking never revokes claims
// already handed out.
func (m *OrderedMerge[T]) SetWindow(n int) {
	if n < 1 {
		n = 1
	}
	m.mu.Lock()
	m.window = n
	m.mu.Unlock()
	m.work.Broadcast()
}

// Abort wakes every blocked claim, WaitWindow, Await and Wait with
// ok == false. Idempotent; called on teardown and after the consumer
// finishes, so producers parked on a full window never outlive the
// merge.
func (m *OrderedMerge[T]) Abort() {
	m.mu.Lock()
	m.aborted = true
	m.mu.Unlock()
	m.cond.Broadcast()
	m.work.Broadcast()
}

// Stall returns the accumulated time the consumer spent blocked on
// producers — in Await for a deposit, in Wait for progress inside one,
// including an in-progress block — the "consumer starved for producers"
// half of the autoscaling signal (the other half, waiting on
// the downstream consumer, is measured where batches are handed off).
func (m *OrderedMerge[T]) Stall() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stall
	if !m.awaitSince.IsZero() {
		st += m.now().Sub(m.awaitSince)
	}
	return st
}
