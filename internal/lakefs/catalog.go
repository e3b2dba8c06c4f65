package lakefs

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/storage"
)

// Catalog is the canonical storage.Catalog of the reproduction, and —
// since the landing path went live — also the canonical
// storage.TailingCatalog and storage.InvalidationNotifier.
var (
	_ storage.Catalog              = (*Catalog)(nil)
	_ storage.TailingCatalog       = (*Catalog)(nil)
	_ storage.InvalidationNotifier = (*Catalog)(nil)
)

// Catalog is the Hive-metastore stand-in: it maps table → hourly partition
// → file paths in a Store. Partition landing and retention mirror the
// paper's data generation pipeline, which constantly lands new hourly
// partitions and deletes old ones (§2.1).
//
// Every published file carries a catalog-wide publish sequence number, and
// the catalog keeps a generation counter bumped on every mutation. Both
// exist for live tailing: a Follow session snapshots the generation, waits
// for it to move (WaitChange), and asks for the files published since its
// last seen sequence (PublishedFiles) — an append-only delta query that
// stays correct even while retention drops leading partitions out from
// under the hour-ordered view. The sequence also fixes the ordering bug
// where files landed concurrently into one hour surfaced in arrival-race
// order: Files/AllFiles now sort each hour by publish sequence, so every
// observer sees one deterministic landing order.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*tableLog
	byPath  map[string]storage.PublishedFile // every live entry, by path
	gen     uint64
	nextSeq uint64
	watch   chan struct{} // closed and replaced on every mutation
	subs    []func(paths []string)
}

// tableLog is one table's append-only publish log. Entries are appended
// in publish-sequence order and removed when retention drops their
// partition, so the slice is always sorted by Seq.
type tableLog struct {
	entries []storage.PublishedFile
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		tables: make(map[string]*tableLog),
		byPath: make(map[string]storage.PublishedFile),
		watch:  make(chan struct{}),
	}
}

// AddFile registers a file of rows rows as part of table's partition for
// the given hour and returns its publish sequence number. Publication is
// atomic: callers land the blob in the store first, then AddFile, so a
// reader that observes the path can always open it.
func (c *Catalog) AddFile(table string, hour int64, path string, rows int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[table]
	if !ok {
		t = &tableLog{}
		c.tables[table] = t
	}
	c.nextSeq++
	e := storage.PublishedFile{Path: path, Hour: hour, Seq: c.nextSeq, Rows: rows}
	t.entries = append(t.entries, e)
	c.byPath[path] = e
	c.bumpLocked()
	return e.Seq
}

// Lookup returns the live entry of the file at path: what a scan plan
// reads the file's row count from.
func (c *Catalog) Lookup(path string) (storage.PublishedFile, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.byPath[path]
	return e, ok
}

// bumpLocked advances the generation and wakes every WaitChange waiter.
// Callers hold c.mu.
func (c *Catalog) bumpLocked() {
	c.gen++
	close(c.watch)
	c.watch = make(chan struct{})
}

// Files returns the file paths of one partition, in publish-sequence
// (landing) order.
func (c *Catalog) Files(table string, hour int64) ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("lakefs: table %q not found", table)
	}
	var fs []string
	for _, e := range t.entries {
		if e.Hour == hour {
			fs = append(fs, e.Path)
		}
	}
	if fs == nil {
		return nil, fmt.Errorf("lakefs: table %q has no partition for hour %d", table, hour)
	}
	return fs, nil
}

// AllFiles returns every file of every partition of the table, ordered by
// hour then publish sequence. This is the scan set of a training job that
// consumes the whole table.
func (c *Catalog) AllFiles(table string) ([]string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("lakefs: table %q not found", table)
	}
	ordered := append([]storage.PublishedFile(nil), t.entries...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Hour != ordered[j].Hour {
			return ordered[i].Hour < ordered[j].Hour
		}
		return ordered[i].Seq < ordered[j].Seq
	})
	out := make([]string, len(ordered))
	for i, e := range ordered {
		out[i] = e.Path
	}
	return out, nil
}

// Generation returns the current catalog generation. It moves on every
// mutation (AddFile, DropPartition), so a tailer can cheaply detect "no
// news" without diffing file lists.
func (c *Catalog) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// WaitChange blocks until the generation exceeds since or ctx is done,
// returning the generation it observed. A since older than the current
// generation returns immediately — wakeups are level-triggered, not
// edge-triggered, so a tailer can never sleep through a landing.
func (c *Catalog) WaitChange(ctx context.Context, since uint64) (uint64, error) {
	for {
		c.mu.RLock()
		gen, w := c.gen, c.watch
		c.mu.RUnlock()
		if gen > since {
			return gen, nil
		}
		select {
		case <-w:
		case <-ctx.Done():
			return gen, ctx.Err()
		}
	}
}

// PublishedFiles returns the table's live files with publish sequence
// greater than afterSeq, in publish order. afterSeq 0 returns the full
// live log. Dropped files never reappear: retention removes their log
// entries, so the delta a tailer sees is exactly "landed since my cursor
// and still alive".
func (c *Catalog) PublishedFiles(table string, afterSeq uint64) ([]storage.PublishedFile, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[table]
	if !ok {
		return nil, fmt.Errorf("lakefs: table %q not found", table)
	}
	var out []storage.PublishedFile
	for _, e := range t.entries {
		if e.Seq > afterSeq {
			out = append(out, e)
		}
	}
	return out, nil
}

// OnInvalidate registers fn to be called with the paths of every file the
// catalog drops (DropPartition / EnforceRetention), after the blobs are
// deleted from the store. Caches subscribe here so retention cannot
// leave them serving data the store no longer holds. Subscribers must not
// call back into the catalog.
func (c *Catalog) OnInvalidate(fn func(paths []string)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = append(c.subs, fn)
}

// Partitions returns the hours that currently have a landed partition,
// sorted ascending.
func (c *Catalog) Partitions(table string) []int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t := c.tables[table]
	if t == nil {
		return nil
	}
	seen := make(map[int64]bool)
	var hours []int64
	for _, e := range t.entries {
		if !seen[e.Hour] {
			seen[e.Hour] = true
			hours = append(hours, e.Hour)
		}
	}
	sort.Slice(hours, func(i, j int) bool { return hours[i] < hours[j] })
	return hours
}

// DropPartition removes a partition from the catalog, deletes its files
// from the store (retention), and notifies invalidation subscribers so
// caches evict the dropped files. It returns the number of files
// deleted.
//
// Ordering matters for coherence: the files leave the catalog first (new
// sessions cannot plan over them), then the store (new reads fail rather
// than refill a cache), and only then are subscribers notified — so a
// compute that raced the delete and is still in flight at notification
// time is doomed rather than retained.
func (c *Catalog) DropPartition(store *Store, table string, hour int64) (int, error) {
	c.mu.Lock()
	t, ok := c.tables[table]
	if !ok {
		c.mu.Unlock()
		return 0, fmt.Errorf("lakefs: table %q not found", table)
	}
	var dropped []string
	kept := t.entries[:0]
	for _, e := range t.entries {
		if e.Hour == hour {
			dropped = append(dropped, e.Path)
			delete(c.byPath, e.Path)
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	c.bumpLocked()
	subs := append([]func(paths []string){}, c.subs...)
	c.mu.Unlock()

	for _, f := range dropped {
		if err := store.Delete(f); err != nil {
			return 0, err
		}
	}
	if len(dropped) > 0 {
		for _, fn := range subs {
			fn(dropped)
		}
	}
	return len(dropped), nil
}

// EnforceRetention drops the oldest partitions of the table until at most
// keep remain, returning the hours dropped.
func (c *Catalog) EnforceRetention(store *Store, table string, keep int) ([]int64, error) {
	hours := c.Partitions(table)
	if len(hours) <= keep {
		return nil, nil
	}
	drop := hours[:len(hours)-keep]
	for _, h := range drop {
		if _, err := c.DropPartition(store, table, h); err != nil {
			return nil, err
		}
	}
	return drop, nil
}

// Tables returns the registered table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
