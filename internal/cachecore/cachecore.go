// Package cachecore is the one single-flight, byte-bounded cache engine
// behind the repo's two cache tiers: dpp.ScanCache (decoded file scans,
// keyed by file + spec fingerprint) and storage.CachingBackend (raw
// blobs, keyed by path). Both tiers previously carried their own ~200
// line copy of the same machinery — coalesced misses, leader-failure
// retry, recency-ordered eviction under a byte budget — which the
// sharded preprocessing fleet would have forced into a third copy.
// Extracting the core keeps exactly one implementation of the
// correctness-critical loop and lets the tiers differ only where their
// contracts actually differ (waiter accounting; see Config).
//
// # Replacement policy
//
// There is one recency list: a hit moves an entry to the front, a new
// entry enters at the front, and the victim is always the tail. That is
// an LRU, and until the cache re-misses something it evicted it behaves
// as exactly that. What it adds is noticing its own thrash:
//
//   - An entry evicted for budget leaves a ghost: its key, never its
//     value. The ghost lives until the key is resident again, is removed
//     (Remove, RemoveIf: the source changed, so the eviction is no longer
//     evidence), or ages out of a FIFO bounded at ghostFactor times the
//     resident-entry high-water mark.
//   - A miss on a ghost is the cache's regret (Stats.GhostHits): it
//     evicted an entry whose reuse distance exceeds its capacity. That is
//     what a cyclic scan larger than the budget looks like — the one
//     pattern on which an LRU hits nothing, and what multi-epoch training
//     is. If the recomputed value fits in free room it is admitted like
//     any other. If admitting it would evict, it is served but not
//     retained: the cache does not evict a second time on behalf of a key
//     it has already evicted once. Over a cycle of N entries with room
//     for C, the C that are resident when the cycle first closes stay —
//     C/N hits per pass where the LRU has 0 — and entries of unequal
//     size cannot churn them.
//   - Refusal alone would pin a stale set forever: when the loop moves
//     onto keys that are all ghosts, nothing is admitted and nothing
//     leaves. So every escapeEvery-th refusal looks at the next victim,
//     the tail of the recency list, and if no hit has reached that entry
//     since the policy last looked at it, the refused value is admitted
//     after all, evicting from the tail as usual. An entry a loop still
//     uses is hit once a pass, so a loop that misses no more than
//     escapeEvery entries per pass never loses one: its resident set is
//     the same on every pass, and so is which of its keys miss. A stale
//     entry is retired at its second look.
//
// ghostFactor = 8 keeps the ghosts (keys only) a small fraction of what
// the values cost while recognising a loop of up to about nine times the
// cache. A much longer loop evicts its ghosts before it returns to them,
// is not detected, and is served as the LRU serves it — the behaviour
// without this policy, never worse. escapeEvery = 8 lets a working set
// that shrank onto ghosted keys become resident at 16 refusals per stale
// entry, and is the most a loop may miss per pass and keep every resident
// entry; a loop that misses more can have two looks fall between two hits
// of its next victim, and then trades that entry for another of its own
// keys at a cost of one hit, at most once per 16 refusals.
//
// Admission and eviction are a pure function of the Get/Remove sequence:
// one counter and each entry's own hit count, no clock, no randomness, no
// map order. Hits, misses, evictions and ghost hits therefore repeat
// exactly for a given sequence.
package cachecore

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// The replacement policy's two constants; the package comment gives the
// reason for each value.
const (
	ghostFactor = 8
	escapeEvery = 8
)

// Config tunes the engine to a tier's documented contract.
type Config struct {
	// MaxBytes is the byte budget. Must be positive; completed entries
	// are evicted least-recently-used once the budget is exceeded. A
	// value whose cost alone exceeds the budget is served but never
	// retained (retaining it would evict the entire cache for one entry),
	// and neither is a value the replacement policy refuses (see the
	// package comment).
	MaxBytes int64
	// CountWaiterHits controls how a caller coalesced onto another
	// caller's in-flight compute is charged once that compute succeeds:
	// true charges a hit (dpp.ScanCache's contract — the waiter was
	// served work someone else paid for), false charges neither hit nor
	// miss (storage.CachingBackend's contract — only resident entries
	// hit).
	CountWaiterHits bool
}

// Cache memoizes compute(key) results under a byte budget with
// single-flight coalescing of concurrent misses. All methods are safe
// for concurrent use.
//
// Failure never poisons: a failed compute propagates only to the caller
// that ran it, and its waiters retry (one of them computing). Evicted
// entries remain valid for holders — values are never recycled, only
// forgotten.
type Cache[K comparable, V any] struct {
	max        int64
	waiterHits bool
	cost       func(V) int64

	mu      sync.Mutex
	entries map[K]*entry[K, V]
	lru     *list.List // complete resident entries only; front = most recent

	// The replacement policy's evidence (see the package comment): the
	// keys evicted for budget, oldest at the front of ghostq; the resident
	// high-water mark that bounds them; refusals since it last looked at
	// the next victim.
	ghosts   map[K]*list.Element
	ghostq   *list.List
	peak     int
	refusals int

	// The accounting is atomic so Stats never contends with Get: a
	// metrics scraper polling every cache tier in the process must stay
	// invisible to the hot path. bytes and resident are mutated only
	// under mu (the eviction logic reads them there), but loaded
	// lock-free by Stats.
	hits, misses, evictions  atomic.Int64
	invalidations, ghostHits atomic.Int64
	bytes, resident          atomic.Int64
}

// entry is one cached (or in-flight) computation.
type entry[K comparable, V any] struct {
	key  K
	el   *list.Element // nil while in flight or after eviction
	cost int64
	hits int64

	// seen is hits as of the replacement policy's last look at this entry
	// as the next victim, -1 before the first.
	seen int64

	// regret marks a miss on a ghost: the key was evicted for budget and
	// asked for again while the cache still remembered it.
	regret bool

	// doomed marks an in-flight entry invalidated mid-compute: its
	// completion serves the value to the callers already waiting but must
	// not retain it — retaining would resurrect data the source deleted,
	// and the map may already hold a fresh entry under the same key.
	doomed bool

	ready chan struct{} // closed when val/err are set
	val   V
	err   error
}

// New builds a cache. cost prices a completed value for the byte
// budget; it is called once per successful compute. Panics on a
// non-positive budget or nil cost, both programmer errors.
func New[K comparable, V any](cfg Config, cost func(V) int64) *Cache[K, V] {
	if cfg.MaxBytes <= 0 {
		panic("cachecore: cache needs a positive byte budget")
	}
	if cost == nil {
		panic("cachecore: cache needs a cost function")
	}
	return &Cache[K, V]{
		max:        cfg.MaxBytes,
		waiterHits: cfg.CountWaiterHits,
		cost:       cost,
		entries:    make(map[K]*entry[K, V]),
		lru:        list.New(),
		ghosts:     make(map[K]*list.Element),
		ghostq:     list.New(),
	}
}

// Get returns the value for key, computing and caching it on a miss.
// Concurrent Gets of one missing key share a single compute call; hit
// reports whether this caller was served without computing (resident
// entry, or a coalesced wait — see Config.CountWaiterHits for how the
// latter is charged in Stats). If the computing caller fails, its error
// reaches that caller alone; waiters retry, one of them computing.
// Cancelling ctx abandons a coalesced wait with ctx.Err(); the in-flight
// compute itself sees only its own caller's context.
func (c *Cache[K, V]) Get(ctx context.Context, key K, compute func(context.Context) (V, error)) (val V, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			select {
			case <-e.ready: // complete
				if e.err == nil {
					c.touch(e)
					c.hits.Add(1)
					e.hits++
					c.mu.Unlock()
					return e.val, true, nil
				}
				// Failed entries are removed by their computer; one still
				// visible lost a race — fall through and wait it out.
			default:
			}
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				var zero V
				return zero, false, ctx.Err()
			}
			if e.err != nil {
				continue // leader failed; retry (and possibly lead)
			}
			c.mu.Lock()
			if c.waiterHits {
				c.touch(e)
				c.hits.Add(1)
				e.hits++
			}
			c.mu.Unlock()
			return e.val, true, nil
		}

		e := &entry[K, V]{key: key, seen: -1, ready: make(chan struct{})}
		c.entries[key] = e
		c.misses.Add(1)
		if _, e.regret = c.ghosts[key]; e.regret {
			c.ghostHits.Add(1)
		}
		c.mu.Unlock()

		e.val, e.err = compute(ctx)

		c.mu.Lock()
		if e.err != nil {
			// A doomed entry was already unmapped by Remove, and the map may
			// hold a successor under the same key — only delete our own.
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			close(e.ready)
			var zero V
			return zero, false, e.err
		}
		e.cost = c.cost(e.val)
		if e.cost > c.max || e.doomed || c.refuse(e) {
			// Unretainable: serve the value (waiters included) but drop the
			// entry rather than evicting everything else to make room — or,
			// for a doomed entry, rather than caching data its source
			// invalidated mid-compute, or, for a refused one, rather than
			// evicting for a key whose own eviction was just regretted.
			if c.entries[key] == e {
				delete(c.entries, key)
			}
		} else {
			c.forget(key)
			e.el = c.lru.PushFront(e)
			c.bytes.Add(e.cost)
			c.resident.Add(1)
			c.evict()
			c.peak = max(c.peak, c.lru.Len())
		}
		c.mu.Unlock()
		close(e.ready)
		return e.val, false, nil
	}
}

// Contains reports whether a completed entry for key is resident,
// without touching recency or the hit/miss accounting.
func (c *Cache[K, V]) Contains(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	return ok && e.el != nil
}

// Remove invalidates the entry for key, reporting whether one existed.
// A resident entry is dropped immediately (its bytes leave the budget);
// an in-flight entry is unmapped and doomed — the compute in progress
// still serves its waiters, but its result is not retained, and a Get
// arriving after Remove returns recomputes from the source. Removal is
// how a catalog's retention path keeps the cache honest: once the
// backing file is deleted, the next lookup must miss.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeLocked(key)
}

// RemoveIf invalidates every entry whose key satisfies pred, returning
// how many were dropped. Used for file-scoped invalidation where one
// file fans out to several cache keys (per-fingerprint scan entries).
func (c *Cache[K, V]) RemoveIf(pred func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key := range c.entries {
		if pred(key) && c.removeLocked(key) {
			n++
		}
	}
	for key := range c.ghosts {
		if pred(key) {
			c.forget(key)
		}
	}
	return n
}

// removeLocked implements Remove. Callers hold c.mu.
func (c *Cache[K, V]) removeLocked(key K) bool {
	c.forget(key)
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	delete(c.entries, key)
	if e.el != nil {
		c.lru.Remove(e.el)
		e.el = nil
		c.bytes.Add(-e.cost)
		c.resident.Add(-1)
	} else {
		e.doomed = true
	}
	c.invalidations.Add(1)
	return true
}

// touch marks a resident entry most-recently-used. Callers hold c.mu.
func (c *Cache[K, V]) touch(e *entry[K, V]) {
	if e.el != nil {
		c.lru.MoveToFront(e.el)
	}
}

// refuse is the replacement policy's one decision (see the package
// comment): a completed entry whose miss was a regret, and that free
// room cannot hold, is not retained — unless this is the escapeEvery-th
// such refusal and the next victim has gone unhit between two of them.
// Callers hold c.mu.
func (c *Cache[K, V]) refuse(e *entry[K, V]) bool {
	if !e.regret || c.bytes.Load()+e.cost <= c.max {
		return false
	}
	if c.refusals = (c.refusals + 1) % escapeEvery; c.refusals != 0 {
		return true
	}
	// e.cost <= c.max < bytes + e.cost, so something is resident.
	victim := c.lru.Back().Value.(*entry[K, V])
	stale := victim.hits == victim.seen
	victim.seen = victim.hits
	return !stale
}

// forget drops key's ghost, if it has one. Callers hold c.mu.
func (c *Cache[K, V]) forget(key K) {
	if g, ok := c.ghosts[key]; ok {
		c.ghostq.Remove(g)
		delete(c.ghosts, key)
	}
}

// evict drops least-recently-used resident entries until the budget
// holds, leaving a ghost for each. Callers hold c.mu.
func (c *Cache[K, V]) evict() {
	for c.bytes.Load() > c.max {
		last := c.lru.Back()
		if last == nil {
			return
		}
		e := last.Value.(*entry[K, V])
		c.lru.Remove(last)
		delete(c.entries, e.key)
		c.bytes.Add(-e.cost)
		c.resident.Add(-1)
		e.el = nil
		c.evictions.Add(1)
		c.ghosts[e.key] = c.ghostq.PushBack(e.key)
		for c.ghostq.Len() > ghostFactor*c.peak {
			c.forget(c.ghostq.Front().Value.(K))
		}
	}
}

// Stats is a snapshot of cache-wide accounting.
type Stats struct {
	// Hits and Misses count Get lookups; see Config.CountWaiterHits
	// for how coalesced waiters are charged.
	Hits, Misses int64
	// Evictions counts entries dropped to respect the byte budget.
	Evictions int64
	// GhostHits counts misses on a key this cache evicted for budget and
	// still remembers — its own regret, and the evidence its replacement
	// policy acts on. Growing with Misses it means thrash (the working set
	// cycles and does not fit); flat beside growing Evictions, churn.
	GhostHits int64
	// Invalidations counts entries dropped by Remove/RemoveIf (cache
	// coherence with the source, not budget pressure).
	Invalidations int64
	// Entries and Bytes describe current occupancy (complete resident
	// entries).
	Entries int
	Bytes   int64
}

// Stats returns a snapshot of the cache accounting. It reads only
// atomics — no lock is taken — so a metrics scraper may poll it at any
// frequency without contending with the serving path. The fields are
// individually consistent (each monotone counter is exact); the snapshot
// as a whole is not a single linearization point.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		GhostHits:     c.ghostHits.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       int(c.resident.Load()),
		Bytes:         c.bytes.Load(),
	}
}

// Entry describes one resident entry.
type Entry[K comparable] struct {
	Key K
	// Hits counts lookups this entry served since insertion.
	Hits int64
	// Bytes is the entry's budgeted cost.
	Bytes int64
}

// Entries returns the resident entries most-recently-used first — the
// order in which eviction will NOT happen.
func (c *Cache[K, V]) Entries() []Entry[K] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[K], 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[K, V])
		out = append(out, Entry[K]{Key: e.key, Hits: e.hits, Bytes: e.cost})
	}
	return out
}
