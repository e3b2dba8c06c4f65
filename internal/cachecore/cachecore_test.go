package cachecore_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cachecore"
)

func newStringCache(maxBytes int64) *cachecore.Cache[string, string] {
	return cachecore.New[string](maxBytes, func(v string) int64 { return int64(len(v)) })
}

func mustGet(t *testing.T, c *cachecore.Cache[string, string], key, val string) bool {
	t.Helper()
	got, hit, err := c.Get(context.Background(), key, func(context.Context, func(string)) (string, error) {
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
	c := newStringCache(12) // room for three 4-byte values

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
	c := newStringCache(8)
	mustGet(t, c, "a", "vvvv")
	mustGet(t, c, "b", "vvvv")
	got, hit, err := c.Get(context.Background(), "huge", func(context.Context, func(string)) (string, error) {
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

// TestWaiterAccounting pins waiter accounting: waiters coalesced onto a
// leader's compute each charge a hit, while the leader charges one miss.
func TestWaiterAccounting(t *testing.T) {
	for _, tc := range []struct {
		name     string
		wantHits int64
	}{
		{"waiters-count-as-hits", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newStringCache(1 << 20)
			release := make(chan struct{})
			var computes atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, _, err := c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
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

// TestPublishedValueServesWaiters pins publishing: a Get arriving after the
// compute published its value is handed it while the compute still runs,
// charged a hit; the entry's cost and retention wait for
// the compute's return; and a compute that fails after publishing leaves no
// entry, so the next Get computes again. (A compute that never publishes is
// TestWaiterAccounting's.)
func TestPublishedValueServesWaiters(t *testing.T) {
	for _, tc := range []struct {
		name     string
		wantHits int64
		fail     bool
	}{
		{"waiters-count-as-hits", 2, false},
		{"fails-after-publishing", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newStringCache(1 << 20)
			published, release := make(chan struct{}), make(chan struct{})
			boom := errors.New("compute failed after publishing")
			leader := make(chan error, 1)
			go func() {
				_, _, err := c.Get(context.Background(), "k", func(_ context.Context, publish func(string)) (string, error) {
					publish("v")
					close(published)
					<-release
					if tc.fail {
						return "", boom
					}
					return "v", nil
				})
				leader <- err
			}()
			<-published
			for i := 0; i < 2; i++ {
				got, hit, err := c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
					return "", errors.New("a Get after the publish must not compute")
				})
				if err != nil || !hit || got != "v" {
					t.Fatalf("Get after the publish: %q hit=%v err=%v, want the published value", got, hit, err)
				}
			}
			if c.Contains("k") {
				t.Fatal("a published value is resident before its compute returned")
			}
			if st := c.Stats(); st.Misses != 1 || st.Hits != tc.wantHits || st.Bytes != 0 {
				t.Fatalf("stats while computing %+v, want 1 miss, %d hits, no bytes", st, tc.wantHits)
			}
			close(release)
			if err := <-leader; (err != nil) != tc.fail {
				t.Fatalf("leader returned %v", err)
			}
			if c.Contains("k") == tc.fail {
				t.Fatalf("resident after the compute returned: %v, want %v", c.Contains("k"), !tc.fail)
			}
			if !tc.fail {
				if st := c.Stats(); st.Bytes != 1 || st.Entries != 1 {
					t.Fatalf("stats after the compute %+v, want the entry's byte charged", st)
				}
				return
			}
			got, hit, err := c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
				return "w", nil
			})
			if err != nil || hit || got != "w" {
				t.Fatalf("Get after the failure: %q hit=%v err=%v, want a fresh compute", got, hit, err)
			}
		})
	}
}

func TestLeaderFailureDoesNotPoison(t *testing.T) {
	c := newStringCache(1 << 20)
	boom := errors.New("compute failed")
	_, _, err := c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
		return "", boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want %v", err, boom)
	}
	if c.Contains("k") {
		t.Fatal("failed entry must not be cached")
	}
	got, hit, err := c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
		return "v", nil
	})
	if err != nil || hit || got != "v" {
		t.Fatalf("retry: %q hit=%v err=%v", got, hit, err)
	}
}

// TestWaiterRetriesAfterLeaderFailure: a caller coalesced onto a compute
// that fails does not inherit its error — it retries and computes for
// itself.
func TestWaiterRetriesAfterLeaderFailure(t *testing.T) {
	c := newStringCache(1 << 20)
	boom := errors.New("compute failed")
	started := make(chan struct{})
	waiter := make(chan error, 1)
	go func() {
		<-started
		got, hit, err := c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
			return "w", nil
		})
		if err == nil && (hit || got != "w") {
			err = fmt.Errorf("got %q hit=%v, want its own compute's value", got, hit)
		}
		waiter <- err
	}()
	_, _, err := c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
		close(started)
		time.Sleep(20 * time.Millisecond) // let the waiter park behind this compute
		return "", boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want %v", err, boom)
	}
	if err := <-waiter; err != nil {
		t.Fatalf("coalesced waiter of a failed compute: %v", err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 || !c.Contains("k") {
		t.Fatalf("stats %+v, want two computes and the waiter's value resident", st)
	}
}

func TestWaiterCancellation(t *testing.T) {
	c := newStringCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
			close(started)
			<-release
			return "v", nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, "k", func(context.Context, func(string)) (string, error) {
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
	c := newStringCache(1 << 20)
	mustGet(t, c, "a", "vvvv")
	mustGet(t, c, "b", "vvvv")
	if c.RemoveIf(only("a")) != 1 {
		t.Fatal("RemoveIf of resident entry dropped nothing")
	}
	if c.RemoveIf(only("a")) != 0 {
		t.Fatal("second RemoveIf of the same key dropped an entry")
	}
	if c.Contains("a") || !c.Contains("b") {
		t.Fatal("RemoveIf dropped the wrong entry")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Bytes != 4 || st.Invalidations != 1 {
		t.Fatalf("stats %+v, want 1 entry, 4 bytes, 1 invalidation", st)
	}
	if hit := mustGet(t, c, "a", "wwww"); hit {
		t.Fatal("Get after RemoveIf hit stale state")
	}
}

// TestRemoveInFlight pins the doomed-entry semantics: removing a key
// whose compute is still running serves the in-flight waiters their
// value but never retains it — and leaks no bytes or ghost LRU nodes.
func TestRemoveInFlight(t *testing.T) {
	c := newStringCache(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan string, 1)
	go func() {
		v, _, err := c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
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
	if c.RemoveIf(only("k")) != 1 {
		t.Fatal("RemoveIf of in-flight entry dropped nothing")
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
		c.Get(context.Background(), "k", func(context.Context, func(string)) (string, error) {
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
	c := newStringCache(1 << 20)
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
