// Package storage defines the blob-store and catalog interfaces the
// ingestion service reads training data through. The paper's DPP service
// sits between many training jobs and Tectonic; decoupling the readers
// from one concrete store is what lets the same session API serve an
// in-memory store in tests and lakefs in the reproduction. Nothing here
// caches: the one cache is dpp.ScanCache, which holds decoded scans above
// the readers, so every fill reads its ranges from the store itself.
//
// lakefs.Store and lakefs.Catalog are the canonical implementations;
// both interfaces are small enough that a test fake is a dozen lines. The
// fetch cost model (the CPU of Tectonic's network, decryption and
// checksumming) is lakefs.Store's, charged in its ReadRange: a Backend
// other than lakefs pays no model.
package storage

import "context"

// Backend is the read surface of a blob store holding immutable DWRF
// files: the two calls a fill makes, the file's size to find its footer
// and range reads for the footer and the stripes. Implementations must be
// safe for concurrent use: one Backend is shared by every reader worker of
// every session.
type Backend interface {
	// ReadRange returns n bytes starting at off. Reads past end-of-blob
	// return a short slice (object-store range-read semantics). The
	// returned slice must be treated as immutable.
	ReadRange(path string, off, n int64) ([]byte, error)
	// Size reports the stored size of the blob at path.
	Size(path string) (int64, error)
}

// Catalog resolves a table name to the ordered file list a full scan of
// that table reads, and a file to its entry. Implementations must be safe
// for concurrent use.
type Catalog interface {
	// AllFiles returns every file of every partition of the table, in
	// deterministic scan order.
	AllFiles(table string) ([]string, error)
	// Lookup returns the live entry of the file at path.
	Lookup(path string) (PublishedFile, bool)
}

// PublishedFile is one catalog entry of a live table: a file path, the
// hourly partition it landed into, its catalog-wide publish sequence
// number, and its row count as the writer that sealed it recorded it.
// Sequence numbers are strictly increasing in landing order and never
// reused, which is what makes them a stable tail cursor. The row counts are
// what a scan is planned from: the rows carried into a file are those of
// every file before it, known before any file is fetched.
type PublishedFile struct {
	Path string
	Hour int64
	Seq  uint64
	Rows int
}

// TailingCatalog is the optional catalog extension a Follow session
// needs: tables may grow (and shrink, under retention) while sessions
// are open, and the catalog announces both. Implementations must be safe
// for concurrent use.
type TailingCatalog interface {
	Catalog
	// Generation returns a counter that moves on every catalog mutation.
	Generation() uint64
	// WaitChange blocks until the generation exceeds since or ctx is
	// done, returning the generation observed (and ctx.Err() if done).
	WaitChange(ctx context.Context, since uint64) (uint64, error)
	// PublishedFiles returns the table's live files with publish sequence
	// greater than afterSeq, in publish order.
	PublishedFiles(table string, afterSeq uint64) ([]PublishedFile, error)
}

// InvalidationNotifier is the optional catalog extension a cache
// subscribes to: fn is called with the paths of every file the catalog
// deletes, after the blobs are gone from the backing store. A cache that
// subscribes and evicts on notification cannot serve data retention
// already destroyed — the stale-cache-after-retention bug this hook
// exists to close.
type InvalidationNotifier interface {
	OnInvalidate(fn func(paths []string))
}
