package storage_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// countingBackend is a minimal Backend that counts inner fetches.
type countingBackend struct {
	mu    sync.Mutex
	blobs map[string][]byte
	gets  atomic.Int64
}

func newCountingBackend() *countingBackend {
	return &countingBackend{blobs: make(map[string][]byte)}
}

func (b *countingBackend) put(path string, data []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.blobs[path] = data
}

func (b *countingBackend) Get(path string) ([]byte, error) {
	b.gets.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.blobs[path]
	if !ok {
		return nil, fmt.Errorf("countingBackend: %q not found", path)
	}
	return d, nil
}

func (b *countingBackend) ReadRange(path string, off, n int64) ([]byte, error) {
	d, err := b.Get(path)
	if err != nil {
		return nil, err
	}
	if off > int64(len(d)) {
		return nil, fmt.Errorf("countingBackend: offset %d beyond %d", off, len(d))
	}
	end := off + n
	if end > int64(len(d)) {
		end = int64(len(d))
	}
	return d[off:end], nil
}

func (b *countingBackend) Size(path string) (int64, error) {
	d, err := b.Get(path)
	return int64(len(d)), err
}

func (b *countingBackend) List(prefix string) []string { return nil }

func (b *countingBackend) Exists(path string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.blobs[path]
	return ok
}

func TestCachingBackendHitMiss(t *testing.T) {
	inner := newCountingBackend()
	inner.put("a", []byte("aaaa"))
	c := storage.NewCachingBackend(inner, 1<<20)

	for i := 0; i < 3; i++ {
		got, err := c.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, []byte("aaaa")) {
			t.Fatalf("Get = %q", got)
		}
	}
	if n := inner.gets.Load(); n != 1 {
		t.Fatalf("inner fetched %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 2 hits 1 miss", st)
	}

	// ReadRange served from the cached blob without touching inner.
	r, err := c.ReadRange("a", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, []byte("aa")) {
		t.Fatalf("ReadRange = %q", r)
	}
	if n := inner.gets.Load(); n != 1 {
		t.Fatalf("ReadRange hit inner (%d fetches)", n)
	}

	// Errors are not cached.
	if _, err := c.Get("missing"); err == nil {
		t.Fatal("expected error for missing blob")
	}
	inner.put("missing", []byte("late"))
	if got, err := c.Get("missing"); err != nil || !bytes.Equal(got, []byte("late")) {
		t.Fatalf("late blob: %q, %v", got, err)
	}
}

func TestCachingBackendEvictsLRU(t *testing.T) {
	inner := newCountingBackend()
	for _, p := range []string{"a", "b", "c"} {
		inner.put(p, bytes.Repeat([]byte(p), 4))
	}
	c := storage.NewCachingBackend(inner, 8) // room for two 4-byte blobs

	mustGet := func(p string) {
		t.Helper()
		if _, err := c.Get(p); err != nil {
			t.Fatal(err)
		}
	}
	mustGet("a")
	mustGet("b")
	mustGet("a") // refresh a: b is now LRU
	mustGet("c") // evicts b
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 1 eviction 2 entries", st)
	}
	fetched := inner.gets.Load()
	mustGet("a") // still cached
	if inner.gets.Load() != fetched {
		t.Fatal("a was evicted but b was least recently used")
	}
	mustGet("b") // refetched
	if inner.gets.Load() != fetched+1 {
		t.Fatal("expected b to have been evicted and refetched")
	}

	// A blob exceeding the whole budget is served but never retained.
	inner.put("huge", bytes.Repeat([]byte("h"), 16))
	mustGet("huge")
	if st := c.Stats(); st.Bytes > 8 {
		t.Fatalf("budget exceeded: %+v", st)
	}
}

// gatedBackend lets a test hold a fetch in flight and fail it on demand.
type gatedBackend struct {
	*countingBackend
	mu       sync.Mutex
	failNext bool
	entered  chan struct{}
	release  chan struct{}
}

func (g *gatedBackend) Get(path string) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.release
	g.mu.Lock()
	fail := g.failNext
	g.failNext = false
	g.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("transient fetch failure")
	}
	return g.countingBackend.Get(path)
}

// TestCachingBackendWaiterRetriesAfterLeaderFailure: a coalesced waiter
// must not inherit the fetching caller's error — it retries and fetches
// itself, mirroring dpp.ScanCache's contract.
func TestCachingBackendWaiterRetriesAfterLeaderFailure(t *testing.T) {
	inner := newCountingBackend()
	inner.put("a", []byte("payload"))
	gated := &gatedBackend{
		countingBackend: inner,
		failNext:        true,
		entered:         make(chan struct{}),
		release:         make(chan struct{}),
	}
	c := storage.NewCachingBackend(gated, 1<<20)

	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.Get("a")
		leaderErr <- err
	}()
	<-gated.entered // leader's fetch is in flight

	waiterDone := make(chan error, 1)
	var waiterData []byte
	go func() {
		d, err := c.Get("a")
		waiterData = d
		waiterDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter park behind the leader
	gated.release <- struct{}{}       // leader fails

	if err := <-leaderErr; err == nil {
		t.Fatal("leader should have failed")
	}
	<-gated.entered // the waiter retried and is now fetching itself
	gated.release <- struct{}{}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter inherited the leader's failure: %v", err)
	}
	if !bytes.Equal(waiterData, []byte("payload")) {
		t.Fatalf("waiter data = %q", waiterData)
	}
}

func TestCachingBackendSingleFlight(t *testing.T) {
	inner := newCountingBackend()
	inner.put("a", []byte("payload"))
	c := storage.NewCachingBackend(inner, 1<<20)

	const callers = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = c.Get("a")
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Coalescing is best-effort under scheduling, but the cache must not
	// fetch once per caller.
	if n := inner.gets.Load(); n > callers/2 {
		t.Fatalf("inner fetched %d times for %d concurrent callers", n, callers)
	}
}

// TestCachingBackendReadRangePopulates: a range read of an uncached blob
// fetches and retains the whole blob through the single-flight path — one
// inner Get and one miss however many ranges follow, each a hit — so a
// ranged reader fills the raw tier just as a whole-blob reader does.
func TestCachingBackendReadRangePopulates(t *testing.T) {
	inner := newCountingBackend()
	inner.put("a", []byte("0123456789"))
	c := storage.NewCachingBackend(inner, 1<<20)

	for _, rd := range []struct {
		off, n int64
		want   string
	}{{8, 2, "89"}, {3, 3, "345"}, {9, 5, "9"}, {10, 1, ""}} { // the last two run past the end: short reads
		got, err := c.ReadRange("a", rd.off, rd.n)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != rd.want {
			t.Fatalf("ReadRange(%d, %d) = %q want %q", rd.off, rd.n, got, rd.want)
		}
	}
	if n := inner.gets.Load(); n != 1 {
		t.Fatalf("inner fetched %d times for four ranges of one blob, want 1", n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 3 || st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("stats %+v, want 1 miss, 3 hits, the blob resident", st)
	}
	if got, err := c.Get("a"); err != nil || string(got) != "0123456789" || inner.gets.Load() != 1 {
		t.Fatalf("Get after range reads = %q, %v, %d inner fetches", got, err, inner.gets.Load())
	}
	if _, err := c.ReadRange("a", 11, 1); err == nil {
		t.Fatal("range starting past the blob's end should fail as the inner store's does")
	}
	if _, err := c.ReadRange("missing", 0, 1); err == nil {
		t.Fatal("range read of a missing blob should fail")
	}
}
