package cachecore_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cachecore"
)

func newStringCache(cfg cachecore.Config) *cachecore.Cache[string, string] {
	return cachecore.New[string](cfg, func(v string) int64 { return int64(len(v)) })
}

func mustGet(t *testing.T, c *cachecore.Cache[string, string], key, val string) bool {
	t.Helper()
	got, hit, err := c.Get(context.Background(), key, func(context.Context) (string, error) {
		return val, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hit && got != val {
		t.Fatalf("computed %q, want %q", got, val)
	}
	return hit
}

func TestEvictionOrderAndRefresh(t *testing.T) {
	c := newStringCache(cachecore.Config{MaxBytes: 12}) // room for three 4-byte values

	for _, k := range []string{"a", "b", "c"} {
		if hit := mustGet(t, c, k, "vvvv"); hit {
			t.Fatalf("first insert of %q reported a hit", k)
		}
	}
	mustGet(t, c, "a", "") // refresh a: b is now LRU
	mustGet(t, c, "d", "vvvv")
	if c.Contains("b") {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Contains(k) {
			t.Fatalf("%q should be resident", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Bytes != 12 {
		t.Fatalf("stats %+v", st)
	}
	entries := c.Entries()
	if len(entries) != 3 || entries[0].Key != "d" || entries[2].Key != "c" {
		t.Fatalf("recency order %+v", entries)
	}
}

// TestOversizeNeverRetained: a value larger than the whole budget is
// served but not inserted — and crucially does not evict the resident
// working set to make room for something that cannot fit anyway.
func TestOversizeNeverRetained(t *testing.T) {
	c := newStringCache(cachecore.Config{MaxBytes: 8})
	mustGet(t, c, "a", "vvvv")
	mustGet(t, c, "b", "vvvv")
	got, hit, err := c.Get(context.Background(), "huge", func(context.Context) (string, error) {
		return "0123456789abcdef", nil
	})
	if err != nil || hit || got != "0123456789abcdef" {
		t.Fatalf("oversize get: %q hit=%v err=%v", got, hit, err)
	}
	if c.Contains("huge") {
		t.Fatal("oversize value must not be retained")
	}
	if !c.Contains("a") || !c.Contains("b") {
		t.Fatal("oversize value evicted the resident working set")
	}
}

// TestWaiterAccounting pins the config split: waiters coalesced onto a
// leader's compute charge a hit with CountWaiterHits and nothing
// without, while the leader charges one miss either way.
func TestWaiterAccounting(t *testing.T) {
	for _, tc := range []struct {
		name       string
		waiterHits bool
		wantHits   int64
	}{
		{"waiters-count-as-hits", true, 3},
		{"waiters-count-nothing", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newStringCache(cachecore.Config{MaxBytes: 1 << 20, CountWaiterHits: tc.waiterHits})
			release := make(chan struct{})
			var computes atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, _, err := c.Get(context.Background(), "k", func(context.Context) (string, error) {
						computes.Add(1)
						<-release
						return "v", nil
					})
					if err != nil {
						t.Error(err)
					}
				}()
			}
			time.Sleep(20 * time.Millisecond) // let the losers park behind the leader
			close(release)
			wg.Wait()
			if n := computes.Load(); n != 1 {
				t.Fatalf("computed %d times for 4 concurrent callers", n)
			}
			st := c.Stats()
			if st.Misses != 1 || st.Hits != tc.wantHits {
				t.Fatalf("stats %+v, want 1 miss %d hits", st, tc.wantHits)
			}
		})
	}
}

func TestLeaderFailureDoesNotPoison(t *testing.T) {
	c := newStringCache(cachecore.Config{MaxBytes: 1 << 20})
	boom := errors.New("compute failed")
	_, _, err := c.Get(context.Background(), "k", func(context.Context) (string, error) {
		return "", boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want %v", err, boom)
	}
	if c.Contains("k") {
		t.Fatal("failed entry must not be cached")
	}
	got, hit, err := c.Get(context.Background(), "k", func(context.Context) (string, error) {
		return "v", nil
	})
	if err != nil || hit || got != "v" {
		t.Fatalf("retry: %q hit=%v err=%v", got, hit, err)
	}
}

func TestWaiterCancellation(t *testing.T) {
	c := newStringCache(cachecore.Config{MaxBytes: 1 << 20})
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.Get(context.Background(), "k", func(context.Context) (string, error) {
			close(started)
			<-release
			return "v", nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, "k", func(context.Context) (string, error) {
			return "", errors.New("waiter must not compute")
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

// TestRemoveResident: invalidating a resident entry frees its bytes,
// counts an invalidation, and forces the next Get to recompute.
func TestRemoveResident(t *testing.T) {
	c := newStringCache(cachecore.Config{MaxBytes: 1 << 20})
	mustGet(t, c, "a", "vvvv")
	mustGet(t, c, "b", "vvvv")
	if !c.Remove("a") {
		t.Fatal("Remove of resident entry reported false")
	}
	if c.Remove("a") {
		t.Fatal("second Remove of the same key reported true")
	}
	if c.Contains("a") || !c.Contains("b") {
		t.Fatal("Remove dropped the wrong entry")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 4 || st.Invalidations != 1 {
		t.Fatalf("stats %+v, want 1 entry, 4 bytes, 1 invalidation", st)
	}
	if hit := mustGet(t, c, "a", "wwww"); hit {
		t.Fatal("Get after Remove hit stale state")
	}
}

// TestRemoveInFlight pins the doomed-entry semantics: removing a key
// whose compute is still running serves the in-flight waiters their
// value but never retains it — and leaks no bytes or ghost LRU nodes.
func TestRemoveInFlight(t *testing.T) {
	c := newStringCache(cachecore.Config{MaxBytes: 1 << 20})
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan string, 1)
	go func() {
		v, _, err := c.Get(context.Background(), "k", func(context.Context) (string, error) {
			close(started)
			<-release
			return "stale", nil
		})
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	<-started
	if !c.Remove("k") {
		t.Fatal("Remove of in-flight entry reported false")
	}
	close(release)
	if v := <-done; v != "stale" {
		t.Fatalf("in-flight caller got %q, want its computed value", v)
	}
	if c.Contains("k") {
		t.Fatal("doomed entry was retained after its compute finished")
	}
	// A successor Get recomputes and is retained normally — the doomed
	// predecessor's completion must not delete the successor's entry.
	startedTwo := make(chan struct{})
	releaseTwo := make(chan struct{})
	doneTwo := make(chan struct{})
	go func() {
		defer close(doneTwo)
		c.Get(context.Background(), "k", func(context.Context) (string, error) {
			close(startedTwo)
			<-releaseTwo
			return "new!", nil
		})
	}()
	<-startedTwo
	close(releaseTwo)
	<-doneTwo
	if !c.Contains("k") {
		t.Fatal("successor entry was not retained")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 4 || st.Invalidations != 1 {
		t.Fatalf("stats %+v, want exactly the successor's 4 bytes resident", st)
	}
}

// TestRemoveIf: predicate invalidation drops exactly the matching keys
// and reports how many it removed.
func TestRemoveIf(t *testing.T) {
	c := newStringCache(cachecore.Config{MaxBytes: 1 << 20})
	for _, k := range []string{"tbl/f1", "tbl/f2", "other/f1"} {
		mustGet(t, c, k, "vvvv")
	}
	n := c.RemoveIf(func(k string) bool { return len(k) >= 4 && k[:4] == "tbl/" })
	if n != 2 {
		t.Fatalf("RemoveIf removed %d entries, want 2", n)
	}
	if c.Contains("tbl/f1") || c.Contains("tbl/f2") || !c.Contains("other/f1") {
		t.Fatal("RemoveIf dropped the wrong keys")
	}
	if st := c.Stats(); st.Invalidations != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 invalidations, 1 entry", st)
	}
}
