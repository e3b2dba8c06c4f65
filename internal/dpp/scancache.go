package dpp

import (
	"context"

	"repro/internal/cachecore"
	"repro/internal/reader"
)

// ScanCache memoizes decoded, deduplicated, preprocessed batches across
// sessions: the cross-session scan sharing the paper's service exists to
// provide. N training jobs whose DataLoader specs agree (same batch size,
// features, dedup groups, and transforms — reader.Spec.Fingerprint) and
// whose scans cover the same files pay for each file's fill → convert →
// process once, not N times.
//
// Entries are keyed by (file, spec fingerprint, carried rows) and hold a
// reader.FileScan, a kept piece log: the file cut for a scan that enters it
// with that many rows pending — the head rows that complete the straddling
// batch, the file's complete batches after them, and its carry-out tail
// rows. The log is the entry from the moment its compute starts: a session
// coalesced onto the compute, or arriving later, reads the pieces cut so far
// at once and follows the rest as they are cut, exactly as the computing
// session does. Every
// part of the key is load-bearing for soundness — the file names the
// bytes, the fingerprint names every spec field that can change what
// those bytes convert to, the carry names where the batch boundaries fall
// — and FileScan's file alignment is what lets cached entries compose
// into a stream byte-identical to an uncached serial scan (pinned by the
// reader and dpp determinism tests). Sessions with one spec over one file
// prefix arrive at every file with the same carry, so the extra key part
// splits nothing they could have shared; a file is cached at most once
// per distinct carry some session entered it with, under the byte budget.
//
// The single-flight, byte-bounded engine underneath is internal/cachecore:
// concurrent requests for a missing entry coalesce (one caller computes and
// publishes the log as it starts; the rest are handed it and charged hits),
// completed entries are evicted least-recently-used once the budget is
// exceeded — an entry is priced, retained or dropped when its compute
// returns, so an in-flight log is never evicted, and one that outgrows the
// budget serves its followers and is then dropped — and a failed compute
// leaves no entry. Epochs are a cyclic scan, an LRU's worst case when the
// files outgrow the budget, so the engine notices when it
// re-misses a scan it evicted and from then on keeps the scans it holds
// instead of evicting them for ones it could not keep either (cachecore's
// package comment has the policy; GhostHits counts the evidence). A scan
// it declines to retain is served like any miss. Evicted entries remain
// valid for sessions already holding them — pieces never change once cut
// and the cache never recycles their memory.
//
// All methods are safe for concurrent use.
type ScanCache struct {
	core *cachecore.Cache[ScanKey, *reader.FileScan]
}

// ScanKey is the identity of one shareable unit of scan work: a file, the
// fingerprint of the spec that converts it, and how many rows the scan
// carries into it (0 on a batch boundary).
type ScanKey struct {
	File        string
	Fingerprint string
	Carry       int
}

// NewScanCache builds a cache bounded to maxBytes of estimated batch and
// tail-row memory (reader.FileScan.MemBytes). maxBytes must be positive.
func NewScanCache(maxBytes int64) *ScanCache {
	if maxBytes <= 0 {
		panic("dpp: scan cache needs a positive byte budget")
	}
	return &ScanCache{
		core: cachecore.New[ScanKey](
			maxBytes,
			func(fs *reader.FileScan) int64 { return fs.MemBytes() },
		),
	}
}

// Get returns the scan for key, computing and caching it via compute on a
// miss. Concurrent Gets of the same key share one compute call, which may
// publish its log before it returns (cachecore.Cache.Get); callers served a
// log another caller computes or computed (or a cached entry) report hit ==
// true. A compute that fails leaves no entry. Cancelling ctx abandons a
// wait for an unpublished compute.
func (c *ScanCache) Get(ctx context.Context, key ScanKey, compute func(ctx context.Context, publish func(*reader.FileScan)) (*reader.FileScan, error)) (scan *reader.FileScan, hit bool, err error) {
	return c.core.Get(ctx, key, compute)
}

// Contains reports whether a completed entry for key is currently
// resident, without touching its recency.
func (c *ScanCache) Contains(key ScanKey) bool { return c.core.Contains(key) }

// InvalidateFiles evicts every entry whose file matches one of paths,
// across all fingerprints and carries — a file deleted by retention is
// gone for every scan that ever decoded it. In-flight computes are doomed
// (served to their waiters, not retained). Wired to the catalog's
// InvalidationNotifier by Service; returns how many entries were
// dropped.
func (c *ScanCache) InvalidateFiles(paths []string) int {
	if len(paths) == 0 {
		return 0
	}
	dropped := make(map[string]bool, len(paths))
	for _, p := range paths {
		dropped[p] = true
	}
	return c.core.RemoveIf(func(k ScanKey) bool { return dropped[k.File] })
}

// ScanCacheStats is a snapshot of cache-wide accounting: the engine's own
// (cachecore.Stats). Hits counts Gets served from a resident entry or
// handed another caller's compute; Misses counts Gets that computed;
// Invalidations counts entries dropped because their file was deleted.
type ScanCacheStats = cachecore.Stats

// Stats returns a snapshot of the cache accounting.
func (c *ScanCache) Stats() ScanCacheStats { return c.core.Stats() }

// EntryStats describes one resident entry, most-recently-used first —
// the per-entry view of hit traffic and memory cost.
type EntryStats struct {
	ScanKey
	// Hits counts Gets served by this entry since it was inserted.
	Hits int64
	// Bytes is the entry's estimated resident cost.
	Bytes int64
}

// Entries returns the resident entries in recency order (most recently
// used first) — the order in which eviction will NOT happen.
func (c *ScanCache) Entries() []EntryStats {
	core := c.core.Entries()
	out := make([]EntryStats, 0, len(core))
	for _, e := range core {
		out = append(out, EntryStats{ScanKey: e.Key, Hits: e.Hits, Bytes: e.Bytes})
	}
	return out
}
