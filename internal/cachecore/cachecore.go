// Package cachecore is the single-flight, byte-bounded cache engine behind
// dpp.ScanCache (decoded file scans, keyed by file, spec fingerprint and
// carry): coalesced misses, leader-failure retry, and recency-ordered
// eviction under a byte budget, kept apart from what the cache holds.
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
//     (RemoveIf: the source changed, so the eviction is no longer
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
// Admission and eviction are a pure function of the Get/RemoveIf sequence:
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

// Cache memoizes compute(key) results under a byte budget with
// single-flight coalescing of concurrent misses. All methods are safe
// for concurrent use.
//
// Failure never poisons: a failed compute propagates only to the caller
// that ran it, and its waiters retry (one of them computing). Evicted
// entries remain valid for holders — values are never recycled, only
// forgotten.
type Cache[K comparable, V any] struct {
	max  int64
	cost func(V) int64

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
	// metrics scraper polling every shard's cache in the process must stay
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

	// ready is closed once the value is served: published by its compute
	// (which may yet fail), computed, or failed. served records that, val and
	// err are set before it, and all three under the cache's mu.
	ready  chan struct{}
	served bool
	val    V
	err    error
}

// serve closes ready, once. Callers hold c.mu.
func (e *entry[K, V]) serve() {
	if !e.served {
		e.served = true
		close(e.ready)
	}
}

// New builds a cache of at most maxBytes. Completed entries are evicted
// least-recently-used once the budget is exceeded; a value whose cost alone
// exceeds it is served but never retained (retaining it would evict the
// entire cache for one entry), and neither is a value the replacement
// policy refuses (see the package comment). cost prices a completed value
// for the budget; it is called once per successful compute. Panics on a
// non-positive budget or nil cost, both programmer errors.
func New[K comparable, V any](maxBytes int64, cost func(V) int64) *Cache[K, V] {
	if maxBytes <= 0 {
		panic("cachecore: cache needs a positive byte budget")
	}
	if cost == nil {
		panic("cachecore: cache needs a cost function")
	}
	return &Cache[K, V]{
		max:     maxBytes,
		cost:    cost,
		entries: make(map[K]*entry[K, V]),
		lru:     list.New(),
		ghosts:  make(map[K]*list.Element),
		ghostq:  list.New(),
	}
}

// Get returns the value for key, computing and caching it on a miss.
// Concurrent Gets of one missing key share a single compute call; hit
// reports whether this caller was served without computing — a resident
// entry, or a coalesced wait, charged a hit either way: the waiter was
// served work someone else paid for. If the computing caller fails, its
// error reaches that caller alone; waiters retry, one of them computing.
// Cancelling ctx abandons a coalesced wait with ctx.Err(); the in-flight
// compute itself sees only its own caller's context.
//
// compute may publish its value before it returns — a value that is
// itself filled in while it is computed: from then on every Get of the key
// is handed it at once and charged as a coalesced waiter, while its cost,
// its retention and any eviction are still decided when compute returns.
// A compute that fails after publishing leaves no entry: the holders keep
// what they were handed, and the next Get computes again.
func (c *Cache[K, V]) Get(ctx context.Context, key K, compute func(ctx context.Context, publish func(V)) (V, error)) (val V, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if !e.served { // else resident, or published
				c.mu.Unlock()
				select {
				case <-e.ready:
				case <-ctx.Done():
					var zero V
					return zero, false, ctx.Err()
				}
				c.mu.Lock()
			}
			if e.err != nil {
				c.mu.Unlock()
				continue // leader failed; retry (and possibly lead)
			}
			c.touch(e)
			c.hits.Add(1)
			e.hits++
			val = e.val
			c.mu.Unlock()
			return val, true, nil
		}

		e := &entry[K, V]{key: key, seen: -1, ready: make(chan struct{})}
		c.entries[key] = e
		c.misses.Add(1)
		if _, e.regret = c.ghosts[key]; e.regret {
			c.ghostHits.Add(1)
		}
		c.mu.Unlock()

		val, err := compute(ctx, func(v V) {
			c.mu.Lock()
			e.val = v
			e.serve()
			c.mu.Unlock()
		})

		c.mu.Lock()
		e.val, e.err = val, err
		if err != nil {
			// A doomed entry was already unmapped by RemoveIf, and the map may
			// hold a successor under the same key — only delete our own.
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			e.serve()
			c.mu.Unlock()
			var zero V
			return zero, false, err
		}
		e.cost = c.cost(val)
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
		e.serve()
		c.mu.Unlock()
		return val, false, nil
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

// RemoveIf invalidates every entry whose key satisfies pred, returning
// how many were dropped, and forgets their ghosts. A resident entry is
// dropped immediately (its bytes leave the budget); an in-flight entry is
// unmapped and doomed — the compute in progress still serves its waiters,
// but its result is not retained, and a Get arriving after RemoveIf
// returns recomputes from the source. Removal is how a catalog's retention
// path keeps the cache honest: once the backing file is deleted, the next
// lookup must miss, whichever of the file's keys it asks for.
func (c *Cache[K, V]) RemoveIf(pred func(K) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, e := range c.entries {
		if !pred(key) {
			continue
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
		n++
	}
	for key := range c.ghosts {
		if pred(key) {
			c.forget(key)
		}
	}
	return n
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
	// Hits and Misses count Get lookups; a caller coalesced onto
	// another's compute is charged a hit (see Get).
	Hits, Misses int64
	// Evictions counts entries dropped to respect the byte budget.
	Evictions int64
	// GhostHits counts misses on a key this cache evicted for budget and
	// still remembers — its own regret, and the evidence its replacement
	// policy acts on. Growing with Misses it means thrash (the working set
	// cycles and does not fit); flat beside growing Evictions, churn.
	GhostHits int64
	// Invalidations counts entries dropped by RemoveIf (cache
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
