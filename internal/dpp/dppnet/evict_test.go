package dppnet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/dpp"
)

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
	s.parkMax = 3
	fixed := time.Unix(1700000000, 0)
	s.resumeClock = func() time.Time { return fixed }

	// The parked streams are live unit sessions that nobody reads: closing
	// one cancels its context, which is all the table's paths do to it.
	env := newTestEnv(t, 24)
	svc, err := dpp.New(dpp.Config{Backend: env.store, Catalog: env.catalog})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	streams := make([]*dpp.UnitSession, 6)
	closed := func(i int) bool { return streams[i].Ctx().Err() != nil }
	park := func(i int) bool {
		us, err := svc.OpenUnits(context.Background(), dpp.Spec{Spec: alignedSpec()}, nil)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = us
		return s.park(&session{
			token:  fmt.Sprintf("t%d", i),
			stream: newUnitWire(us),
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
	if !closed(0) {
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
	if closed(1) {
		t.Fatal("in-use entry t1 was closed by capacity eviction")
	}
	if !closed(2) {
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
