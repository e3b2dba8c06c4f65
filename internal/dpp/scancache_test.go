package dpp_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dpp"
	"repro/internal/dwrf"
	"repro/internal/reader"
)

// fakeScan builds a FileScan whose MemBytes is deterministic: tail-only
// samples with no feature payloads cost a fixed struct overhead each.
func fakeScan(tailRows int) *reader.FileScan {
	tail, err := dwrf.ChunkFromSamples(make([]datagen.Sample, tailRows), nil, 0, nil)
	if err != nil {
		panic(err)
	}
	fs := reader.NewFileScan(0, true)
	fs.Send(reader.Piece{Rows: tail})
	fs.Close(nil)
	return fs
}

func mustGet(t *testing.T, c *dpp.ScanCache, file, fp string, scan *reader.FileScan) bool {
	t.Helper()
	_, hit, err := c.Get(context.Background(), dpp.ScanKey{File: file, Fingerprint: fp}, func(context.Context, func(*reader.FileScan)) (*reader.FileScan, error) {
		return scan, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return hit
}

// TestScanCacheEvictionOrder fills the cache past its byte budget and
// asserts least-recently-used entries leave first — with a recency
// refresh flipping the victim.
func TestScanCacheEvictionOrder(t *testing.T) {
	unit := fakeScan(2).MemBytes() // cost of one two-row entry
	c := dpp.NewScanCache(3 * unit)

	const fp = "spec-v1"
	if hit := mustGet(t, c, "a", fp, fakeScan(2)); hit {
		t.Fatal("first insert reported a hit")
	}
	mustGet(t, c, "b", fp, fakeScan(2))
	mustGet(t, c, "c", fp, fakeScan(2))
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 3 || st.Bytes != 3*unit {
		t.Fatalf("pre-pressure stats %+v", st)
	}

	// Refresh a: the LRU victim is now b.
	if hit := mustGet(t, c, "a", fp, nil); !hit {
		t.Fatal("a should be resident")
	}
	mustGet(t, c, "d", fp, fakeScan(2)) // over budget: evicts b
	if c.Contains(dpp.ScanKey{File: "b", Fingerprint: fp}) {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, f := range []string{"a", "c", "d"} {
		if !c.Contains(dpp.ScanKey{File: f, Fingerprint: fp}) {
			t.Fatalf("%s should be resident", f)
		}
	}
	mustGet(t, c, "e", fp, fakeScan(2)) // evicts c (a was refreshed, d/e newer)
	if c.Contains(dpp.ScanKey{File: "c", Fingerprint: fp}) {
		t.Fatal("c should have been evicted after b")
	}
	if !c.Contains(dpp.ScanKey{File: "a", Fingerprint: fp}) {
		t.Fatal("refreshed a should have outlived b and c")
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Entries != 3 || st.Bytes != 3*unit {
		t.Fatalf("post-pressure stats %+v", st)
	}

	// Entries() reports recency order: most recent first.
	entries := c.Entries()
	if len(entries) != 3 || entries[0].File != "e" || entries[2].File != "a" {
		t.Fatalf("recency order %+v", entries)
	}

	// An entry exceeding the whole budget is served but not retained.
	if hit := mustGet(t, c, "huge", fp, fakeScan(100)); hit {
		t.Fatal("oversized entry cannot hit")
	}
	if c.Contains(dpp.ScanKey{File: "huge", Fingerprint: fp}) {
		t.Fatal("oversized entry should not be resident")
	}

	// The fingerprint is half the key: same file, different spec = miss.
	if hit := mustGet(t, c, "a", "spec-v2", fakeScan(2)); hit {
		t.Fatal("different fingerprint must not share entries")
	}
}

// TestScanCacheSingleFlight: concurrent Gets of one missing key share a
// single compute call.
func TestScanCacheSingleFlight(t *testing.T) {
	c := dpp.NewScanCache(1 << 20)
	var computes atomic.Int64
	release := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	hits := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, hit, err := c.Get(context.Background(), dpp.ScanKey{File: "f", Fingerprint: "fp"}, func(context.Context, func(*reader.FileScan)) (*reader.FileScan, error) {
				computes.Add(1)
				<-release // hold every other caller in the coalesced wait
				return fakeScan(1), nil
			})
			if err != nil {
				t.Error(err)
			}
			hits[i] = hit
		}(i)
	}
	// Let the leader win the key and the rest pile up behind it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times for %d concurrent callers", n, callers)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats %+v, want 1 miss %d hits", st, callers-1)
	}
	nHits := 0
	for _, h := range hits {
		if h {
			nHits++
		}
	}
	if nHits != callers-1 {
		t.Fatalf("%d callers reported hits, want %d", nHits, callers-1)
	}
}

// TestScanCacheLeaderFailureDoesNotPoison: a failed compute propagates to
// its caller only; waiters (and later callers) retry and succeed.
func TestScanCacheLeaderFailureDoesNotPoison(t *testing.T) {
	c := dpp.NewScanCache(1 << 20)
	boom := errors.New("decode failed")
	var calls atomic.Int64

	_, _, err := c.Get(context.Background(), dpp.ScanKey{File: "f", Fingerprint: "fp"}, func(context.Context, func(*reader.FileScan)) (*reader.FileScan, error) {
		calls.Add(1)
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want %v", err, boom)
	}
	if c.Contains(dpp.ScanKey{File: "f", Fingerprint: "fp"}) {
		t.Fatal("failed entry must not be cached")
	}
	scan, hit, err := c.Get(context.Background(), dpp.ScanKey{File: "f", Fingerprint: "fp"}, func(context.Context, func(*reader.FileScan)) (*reader.FileScan, error) {
		calls.Add(1)
		return fakeScan(1), nil
	})
	if err != nil || hit || scan == nil {
		t.Fatalf("retry: scan=%v hit=%v err=%v", scan, hit, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("computed %d times, want 2", calls.Load())
	}
}

// TestScanCacheWaiterCancellation: a caller blocked on another caller's
// compute honours its own context.
func TestScanCacheWaiterCancellation(t *testing.T) {
	c := dpp.NewScanCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)

	go func() {
		c.Get(context.Background(), dpp.ScanKey{File: "f", Fingerprint: "fp"}, func(context.Context, func(*reader.FileScan)) (*reader.FileScan, error) {
			close(started)
			<-release
			return fakeScan(1), nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, dpp.ScanKey{File: "f", Fingerprint: "fp"}, func(context.Context, func(*reader.FileScan)) (*reader.FileScan, error) {
			return nil, fmt.Errorf("waiter must not compute")
		})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
}
