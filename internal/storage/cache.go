package storage

import (
	"context"

	"repro/internal/cachecore"
)

// CachingBackend wraps another Backend with a byte-bounded cache of
// whole blobs, so that many sessions scanning the same files fetch each
// blob from the underlying store once instead of once per session. It is
// the raw-byte tier of cross-session scan sharing: sessions whose specs
// differ cannot share decoded batches (dpp.ScanCache), but they can still
// share the fetched bytes underneath.
//
// The engine is internal/cachecore, shared with dpp.ScanCache: an LRU
// that, once a cyclic scan larger than the budget makes it re-miss blobs
// it evicted, keeps what it holds rather than evicting it for blobs it
// could not keep either (see that package). Concurrent Gets of the same uncached path are coalesced
// — one caller fetches from the inner backend while the rest wait for
// that fetch — so a thundering herd of sessions opening on the same
// partition costs one inner read per file, and a fetch error propagates
// only to the caller that performed the fetch (waiters retry, so one
// caller's transient failure cannot poison another session's scan).
//
// The cached slices are the inner backend's return values and are served
// to every caller; Backend's contract already requires callers to treat
// returned slices as immutable, so sharing them is safe.
type CachingBackend struct {
	inner Backend
	core  *cachecore.Cache[string, []byte]
}

var _ Backend = (*CachingBackend)(nil)

// NewCachingBackend wraps inner with a cache of at most maxBytes of blob
// data. maxBytes must be positive; blobs larger than the whole budget are
// served but never retained.
func NewCachingBackend(inner Backend, maxBytes int64) *CachingBackend {
	if maxBytes <= 0 {
		panic("storage: caching backend needs a positive byte budget")
	}
	return &CachingBackend{
		inner: inner,
		core: cachecore.New[string](
			cachecore.Config{MaxBytes: maxBytes},
			func(data []byte) int64 { return int64(len(data)) },
		),
	}
}

// Get returns the blob at path, serving from cache when possible. Misses
// fetch from the inner backend exactly once per concurrent group of
// callers and then populate the cache, evicting least-recently-used blobs
// to stay within the byte budget (or, under a cyclic scan that outgrew
// it, are served without being retained — see CachingBackend).
func (c *CachingBackend) Get(path string) ([]byte, error) {
	data, _, err := c.core.Get(context.Background(), path, func(context.Context) ([]byte, error) {
		return c.inner.Get(path)
	})
	return data, err
}

// ReadRange serves the range from the cached blob. A miss fetches and
// retains the whole blob through the same single-flight path as Get, so
// a ranged reader fills the tier exactly as a whole-blob reader does:
// one inner Get per blob per herd, counted as one miss, every later
// range a hit. What the caller pays its own cost model for is the range
// it asked for; what the inner store serves on a miss is the blob.
func (c *CachingBackend) ReadRange(path string, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return c.inner.ReadRange(path, off, n) // let inner report the error idiomatically
	}
	data, err := c.Get(path)
	if err != nil {
		return nil, err
	}
	if off > int64(len(data)) {
		return c.inner.ReadRange(path, off, n)
	}
	return data[off:min(off+n, int64(len(data)))], nil
}

// InvalidateFiles evicts the named blobs from the cache, dooming
// in-flight fetches so they are served but not retained. Wire it to a
// catalog's InvalidationNotifier so retention drops cannot leave the raw
// tier serving bytes the store deleted. Returns how many entries were
// dropped.
func (c *CachingBackend) InvalidateFiles(paths []string) int {
	n := 0
	for _, p := range paths {
		if c.core.Remove(p) {
			n++
		}
	}
	return n
}

// Demote releases the cached blob for path without touching hit/miss
// accounting of future lookups. The decoded tier calls this once it has
// retained a file's scan: keeping the raw bytes too would charge the same
// file to both budgets (the ROADMAP's double-caching item), and the
// decoded form is the one sessions actually reuse. Reports whether a
// resident or in-flight entry was released.
func (c *CachingBackend) Demote(path string) bool {
	return c.core.Remove(path)
}

// Size delegates to the inner backend.
func (c *CachingBackend) Size(path string) (int64, error) { return c.inner.Size(path) }

// List delegates to the inner backend.
func (c *CachingBackend) List(prefix string) []string { return c.inner.List(prefix) }

// Exists delegates to the inner backend.
func (c *CachingBackend) Exists(path string) bool { return c.inner.Exists(path) }

// CacheStats is a snapshot of a CachingBackend's accounting.
type CacheStats struct {
	// Hits and Misses count Get/ReadRange lookups served from / past the
	// cache. Coalesced waiters of one in-flight fetch count as one miss
	// for the fetcher and no hit or miss for the waiters.
	Hits, Misses int64
	// Evictions counts blobs dropped to respect the byte budget.
	Evictions int64
	// GhostHits counts misses on a blob evicted that way while the cache
	// still remembered its path (thrash, as opposed to churn).
	GhostHits int64
	// Invalidations counts blobs dropped for coherence: retention
	// invalidations plus demotions to the decoded tier.
	Invalidations int64
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
}

// Stats returns a snapshot of the cache accounting.
func (c *CachingBackend) Stats() CacheStats {
	st := c.core.Stats()
	return CacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		GhostHits:     st.GhostHits,
		Invalidations: st.Invalidations,
		Entries:       st.Entries,
		Bytes:         st.Bytes,
	}
}
