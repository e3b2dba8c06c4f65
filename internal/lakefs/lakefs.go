// Package lakefs is a stand-in for the Tectonic distributed filesystem and
// the Hive table catalog that the paper's pipeline stores DWRF files in
// (paper §2.1). It is an in-memory blob store with precise read/write byte
// and IOPS accounting, which is what the paper's storage experiments
// measure (Table 3 "Read Bytes", §6.1 compression ratios), plus an
// hourly-partitioned table catalog with retention, mirroring the paper's
// "new table partitions are constantly landed and old partitions are
// deleted". Its ReadRange also charges the CPU cost of a Tectonic fetch
// (the fetch cost model, fetchCPUPasses): a storage.Backend other than a
// lakefs.Store pays no such cost.
package lakefs

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// Store is the canonical storage.Backend of the reproduction; keep it
// conforming as the interface evolves.
var _ storage.Backend = (*Store)(nil)

// Store is an exabyte-scale-filesystem stand-in: a flat namespace of
// immutable blobs with IO accounting. All methods are safe for concurrent
// use; readers in the reader tier share one Store.
type Store struct {
	mu    sync.RWMutex
	blobs map[string][]byte

	readBytes    int64
	writtenBytes int64
	readOps      int64
	writeOps     int64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{blobs: make(map[string][]byte)}
}

// Put stores data under path, replacing any existing blob. The data is
// copied so the caller may reuse its buffer.
func (s *Store) Put(path string, data []byte) error {
	if path == "" {
		return fmt.Errorf("lakefs: empty path")
	}
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs[path] = cp
	s.writtenBytes += int64(len(cp))
	s.writeOps++
	return nil
}

// Get returns the full blob at path. The returned slice must not be
// modified. The read is charged to the store's IO accounting but not to
// the fetch cost model: no fill calls Get, and the ladder's walk times it
// as the raw store read that fill's time is measured against.
func (s *Store) Get(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[path]
	if !ok {
		return nil, fmt.Errorf("lakefs: %q not found", path)
	}
	s.readBytes += int64(len(b))
	s.readOps++
	return b, nil
}

// ReadRange returns n bytes starting at off from the blob at path. Partial
// reads at end-of-blob return a short slice, matching object-store range
// read semantics; its capacity ends with it, so an append cannot reach the
// stored blob. Only the returned bytes are charged, to the IO accounting
// and to the fetch cost model, which runs on the caller's goroutine after
// the store's lock is released, so concurrent readers pay it side by side
// rather than one at a time.
func (s *Store) ReadRange(path string, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("lakefs: negative range %d+%d", off, n)
	}
	s.mu.Lock()
	b, ok := s.blobs[path]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("lakefs: %q not found", path)
	}
	if off > int64(len(b)) {
		s.mu.Unlock()
		return nil, fmt.Errorf("lakefs: offset %d beyond blob size %d", off, len(b))
	}
	end := min(off+n, int64(len(b)))
	s.readBytes += end - off
	s.readOps++
	s.mu.Unlock()
	data := b[off:end:end]
	simulateFetchWork(data)
	return data, nil
}

// fetchCPUPasses is how many per-byte passes the simulated fetch path
// spends on each fetched byte, standing in for the network stack,
// decryption, and checksumming a production DPP reader performs on
// fetched data (paper §6.3: fill = "fetching data from Tectonic and
// decrypting, decompressing (zstd), and decoding"). This makes fill CPU
// time scale with the bytes a scan actually fetches, so clustering's
// smaller files — and a narrower projection — cut fill time as they do
// in production (docs/ARCHITECTURE.md lists the substitution).
const fetchCPUPasses = 160

// fetchSink absorbs the checksum so the compiler cannot elide the pass;
// atomic because every reader of every session fetches concurrently.
var fetchSink atomic.Uint64

func simulateFetchWork(data []byte) {
	var h uint64 = 14695981039346656037 // FNV-1a 64-bit offset basis
	for pass := 0; pass < fetchCPUPasses; pass++ {
		for _, b := range data {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	fetchSink.Add(h)
}

// Size reports the stored size of the blob at path without charging a read.
func (s *Store) Size(path string) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[path]
	if !ok {
		return 0, fmt.Errorf("lakefs: %q not found", path)
	}
	return int64(len(b)), nil
}

// Delete removes the blob at path. Deleting a missing blob is an error so
// retention bugs surface in tests.
func (s *Store) Delete(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.blobs[path]; !ok {
		return fmt.Errorf("lakefs: %q not found", path)
	}
	delete(s.blobs, path)
	return nil
}

// Stats is a snapshot of the store's IO and occupancy accounting.
type Stats struct {
	// ReadBytes and WrittenBytes count bytes moved by Get/ReadRange and
	// Put since the last ResetIO.
	ReadBytes    int64
	WrittenBytes int64
	// ReadOps and WriteOps count calls (the paper's "read IOPS demand").
	ReadOps  int64
	WriteOps int64
	// StoredBytes and Objects describe current occupancy.
	StoredBytes int64
	Objects     int64
}

// Stats returns a snapshot of the accounting counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		ReadBytes:    s.readBytes,
		WrittenBytes: s.writtenBytes,
		ReadOps:      s.readOps,
		WriteOps:     s.writeOps,
		Objects:      int64(len(s.blobs)),
	}
	for _, b := range s.blobs {
		st.StoredBytes += int64(len(b))
	}
	return st
}

// ResetIO zeroes the read/write counters (occupancy is unaffected). Used
// between experiment phases so Table 3 style measurements isolate the read
// path.
func (s *Store) ResetIO() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.readBytes, s.writtenBytes, s.readOps, s.writeOps = 0, 0, 0, 0
}
