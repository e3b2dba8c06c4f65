package reader

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func queueFiles(n int) []string {
	files := make([]string, n)
	for i := range files {
		files[i] = string(rune('a' + i))
	}
	return files
}

// TestScanQueueOrderedMerge: results deposited out of order come back
// from Await strictly in file-index order.
func TestScanQueueOrderedMerge(t *testing.T) {
	q := NewScanQueue(queueFiles(4), 4, nil)
	var idxs []int
	var files []string
	for {
		c, ok := q.Claim()
		if !ok {
			break
		}
		idxs = append(idxs, c.Index)
		files = append(files, c.File)
	}
	if len(idxs) != 4 {
		t.Fatalf("claimed %d files, want 4", len(idxs))
	}
	// Deposit in reverse claim order.
	for i := len(idxs) - 1; i >= 0; i-- {
		q.Deposit(idxs[i], Unit{Err: errors.New(files[i])})
	}
	for i := 0; i < 4; i++ {
		res, ok := q.Await(i)
		if !ok {
			t.Fatalf("Await(%d) aborted", i)
		}
		if res.Err.Error() != files[i] {
			t.Fatalf("Await(%d) returned file %q, want %q", i, res.Err, files[i])
		}
	}
	if _, ok := q.Await(4); ok {
		t.Fatal("Await past the scan set should report done")
	}
}

// TestScanQueueWindowBound: claims beyond base+window block until the
// assembler consumes (or the window grows), bounding decoded-but-unmerged
// files.
func TestScanQueueWindowBound(t *testing.T) {
	q := NewScanQueue(queueFiles(5), 2, nil)
	for i := 0; i < 2; i++ {
		c, ok := q.Claim()
		if !ok || c.Index != i {
			t.Fatalf("claim %d = (%d, %v)", i, c.Index, ok)
		}
		q.Deposit(c.Index, Unit{})
	}
	claimed := make(chan int, 1)
	go func() {
		c, ok := q.Claim()
		if ok {
			claimed <- c.Index
		}
		close(claimed)
	}()
	select {
	case idx := <-claimed:
		t.Fatalf("claim %d proceeded past a full window", idx)
	case <-time.After(30 * time.Millisecond):
	}
	if _, ok := q.Await(0); !ok {
		t.Fatal("Await(0) failed")
	}
	select {
	case idx, ok := <-claimed:
		if !ok || idx != 2 {
			t.Fatalf("unblocked claim = (%d, %v), want index 2", idx, ok)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("claim still blocked after the window slid")
	}

	// Growing the window unblocks a parked claimer too.
	blocked := make(chan int, 1)
	go func() {
		c, ok := q.Claim()
		if ok {
			blocked <- c.Index
		}
		close(blocked)
	}()
	select {
	case idx := <-blocked:
		t.Fatalf("claim %d proceeded past a full window", idx)
	case <-time.After(30 * time.Millisecond):
	}
	q.SetWindow(4)
	select {
	case idx, ok := <-blocked:
		if !ok || idx != 3 {
			t.Fatalf("post-resize claim = (%d, %v), want index 3", idx, ok)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("claim still blocked after SetWindow")
	}
}

// TestScanQueueAbort: Abort wakes blocked claimers and awaiters with
// ok == false, and later calls observe the same.
func TestScanQueueAbort(t *testing.T) {
	q := NewScanQueue(queueFiles(3), 1, nil)
	if c, ok := q.Claim(); !ok || c.Index != 0 {
		t.Fatalf("claim = (%d, %v)", c.Index, ok)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // blocked claimer (window full)
		defer wg.Done()
		if _, ok := q.Claim(); ok {
			t.Error("claim succeeded after abort")
		}
	}()
	go func() { // blocked awaiter (nothing deposited)
		defer wg.Done()
		if _, ok := q.Await(0); ok {
			t.Error("await succeeded after abort")
		}
	}()
	time.Sleep(20 * time.Millisecond)
	q.Abort()
	wg.Wait()
	if _, ok := q.Claim(); ok {
		t.Fatal("claim succeeded on an aborted queue")
	}
}

// TestScanQueueStallClock: Await charges blocked time to Stall using the
// injected clock — and only when it actually blocks.
func TestScanQueueStallClock(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	q := NewScanQueue(queueFiles(2), 2, clock)
	c0, _ := q.Claim()
	q.Deposit(c0.Index, Unit{})
	if _, ok := q.Await(0); !ok {
		t.Fatal("Await(0) failed")
	}
	if st := q.Stall(); st != 0 {
		t.Fatalf("non-blocking Await charged %v stall", st)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := q.Await(1); !ok {
			t.Error("Await(1) failed")
		}
	}()
	time.Sleep(20 * time.Millisecond) // let the awaiter park and stamp its start
	advance(7 * time.Millisecond)
	c1, _ := q.Claim()
	q.Deposit(c1.Index, Unit{})
	<-done
	if st := q.Stall(); st != 7*time.Millisecond {
		t.Fatalf("blocked Await charged %v stall, want 7ms", st)
	}
}

// TestFillQueueStopCheckpoint: a worker whose stop hook fires exits
// between files without claiming further work, and the remaining files
// are still claimable by others.
func TestFillQueueStopCheckpoint(t *testing.T) {
	// A FillQueue against a store is exercised end-to-end by the dpp
	// session tests; here the checkpoint contract alone is pinned via a
	// queue the worker never gets to claim from.
	q := NewScanQueue(queueFiles(3), 3, nil)
	r, err := NewReader(stubStore{}, Spec{Table: "t", BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	FillQueue(t.Context(), q, scanFill(r), func() bool { return true })
	if c, ok := q.Claim(); !ok || c.Index != 0 {
		t.Fatalf("stopped worker consumed a claim: next claim = (%d, %v), want (0, true)", c.Index, ok)
	}
}

// stubStore satisfies storage.Backend for tests that never fetch.
type stubStore struct{}

func (stubStore) Get(string) ([]byte, error)                     { return nil, nil }
func (stubStore) ReadRange(string, int64, int64) ([]byte, error) { return nil, nil }
func (stubStore) Size(string) (int64, error)                     { return 0, nil }
func (stubStore) List(string) []string                           { return nil }
func (stubStore) Exists(string) bool                             { return false }
