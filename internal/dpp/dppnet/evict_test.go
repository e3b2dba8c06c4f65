package dppnet

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dpp"
)

// stubStream is a wireStream that only records whether it was closed —
// enough to drive the resume table's park/evict paths without a live
// session behind it.
type stubStream struct{ closed atomic.Bool }

func (s *stubStream) next(context.Context) (frame, error) { return frame{}, io.EOF }
func (s *stubStream) recycle(frame)                       {}
func (s *stubStream) endFollow()                          {}
func (s *stubStream) stats() dpp.SessionStats             { return dpp.SessionStats{} }
func (s *stubStream) close() error                        { s.closed.Store(true); return nil }

// TestResumeCapacityEvictionPrefersOldestPark is the regression test for
// the eviction tiebreak: entries parked within one clock tick share an
// expiry, and the old code then evicted whichever entry map iteration
// happened to visit — sometimes the *youngest*, stranding a reconnecting
// client whose token was still well inside its claim window. The fix
// breaks expiry ties on park order (session.seq), so under a frozen
// clock the victim is always the oldest unclaimed entry.
func TestResumeCapacityEvictionPrefersOldestPark(t *testing.T) {
	s := NewServer(nil)
	defer s.Close()
	s.ResumeMax = 3
	fixed := time.Unix(1700000000, 0)
	s.resumeClock = func() time.Time { return fixed }

	streams := make([]*stubStream, 6)
	park := func(i int) bool {
		streams[i] = &stubStream{}
		return s.park(&session{
			token:  fmt.Sprintf("t%d", i),
			stream: streams[i],
			cancel: func() {},
		})
	}
	tokens := func() map[string]bool {
		s.resume.mu.Lock()
		defer s.resume.mu.Unlock()
		got := make(map[string]bool, len(s.resume.entries))
		for tok := range s.resume.entries {
			got[tok] = true
		}
		return got
	}

	for i := 0; i < 3; i++ {
		if !park(i) {
			t.Fatalf("park t%d refused with the table below capacity", i)
		}
	}

	// Fourth park overflows: every entry expires at the same frozen
	// instant, so the seq tiebreak must pick t0, the oldest park.
	if !park(3) {
		t.Fatal("park t3 refused; capacity eviction should have made room")
	}
	if got := tokens(); got["t0"] || !got["t1"] || !got["t2"] || !got["t3"] {
		t.Fatalf("table holds %v, want t1..t3 with the oldest park t0 evicted", got)
	}
	if !streams[0].closed.Load() {
		t.Fatal("evicted entry t0 was not closed")
	}
	if st := s.Stats(); st.ResumeExpired != 1 {
		t.Fatalf("ResumeExpired = %d, want 1", st.ResumeExpired)
	}

	// An in-use entry — a client is mid-claim on it — is never the
	// victim: the next-oldest unclaimed entry (t2) goes instead.
	s.resume.mu.Lock()
	s.resume.entries["t1"].inUse = true
	s.resume.mu.Unlock()
	if !park(4) {
		t.Fatal("park t4 refused; t2 was evictable")
	}
	if got := tokens(); !got["t1"] || got["t2"] || !got["t3"] || !got["t4"] {
		t.Fatalf("table holds %v, want t1 (in use) kept and t2 evicted", got)
	}
	if streams[1].closed.Load() {
		t.Fatal("in-use entry t1 was closed by capacity eviction")
	}
	if !streams[2].closed.Load() {
		t.Fatal("evicted entry t2 was not closed")
	}
	if st := s.Stats(); st.ResumeExpired != 2 {
		t.Fatalf("ResumeExpired = %d, want 2", st.ResumeExpired)
	}

	// A table full of in-use entries refuses the park outright rather
	// than cutting a stream someone is actively resuming.
	s.resume.mu.Lock()
	for _, e := range s.resume.entries {
		e.inUse = true
	}
	s.resume.mu.Unlock()
	if park(5) {
		t.Fatal("park t5 succeeded against a table full of in-use entries")
	}
	if got := tokens(); got["t5"] {
		t.Fatal("refused park still inserted t5")
	}
}
