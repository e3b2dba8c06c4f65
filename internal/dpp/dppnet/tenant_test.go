package dppnet

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/dpp"
	"repro/internal/dpp/front"
	"repro/internal/testutil"
)

func twoTenantGate(limits map[string]front.Limits) *front.Gate {
	return front.NewGate(front.Config{
		Auth:   front.StaticTokens{"tok-a": "team-a", "tok-b": "team-b"},
		Limits: limits,
	})
}

// TestHandshakeAuthRejectsBeforeSessionState: a missing or unknown
// tenant token fails the handshake at the front door — before the
// service allocates any session state — while a valid token streams
// normally and threads its tenant into the access-log events.
func TestHandshakeAuthRejectsBeforeSessionState(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 60)
	gate := twoTenantGate(nil)
	var mu sync.Mutex
	var events []SessionEvent
	h := startTunedServer(t, env, dpp.Config{}, func(s *Server) {
		s.Gate = gate
		s.OnSession = func(ev SessionEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
	})

	if _, err := NewClient(h.addr).Open(context.Background(), dpp.Spec{Spec: alignedSpec()}); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "unauthorized") {
		t.Fatalf("tokenless open = %v, want ErrRemote unauthorized", err)
	}
	bogus := NewClient(h.addr)
	bogus.AuthToken = "not-a-token"
	if _, err := bogus.Open(context.Background(), dpp.Spec{Spec: alignedSpec()}); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "unauthorized") {
		t.Fatalf("bad-token open = %v, want ErrRemote unauthorized", err)
	}
	if n := h.svc.Stats().SessionsOpened; n != 0 {
		t.Fatalf("service opened %d sessions for rejected handshakes, want 0", n)
	}
	if st := gate.Stats(); st.AuthFailures != 2 {
		t.Fatalf("gate AuthFailures = %d, want 2", st.AuthFailures)
	}

	ok := NewClient(h.addr)
	ok.AuthToken = "tok-a"
	rs, err := ok.Open(context.Background(), dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		t.Fatalf("authenticated open: %v", err)
	}
	if got := drainRemote(t, rs); len(got) == 0 {
		t.Fatal("authenticated session streamed no batches")
	}
	testutil.Eventually(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, ev := range events {
			if ev.Kind == "close" && ev.Tenant == "team-a" {
				return true
			}
		}
		return false
	}, "access log saw the session close under its tenant label")
	mu.Lock()
	for _, ev := range events {
		if ev.Kind == "error" && !strings.Contains(ev.Detail, "admission") {
			t.Errorf("unexpected non-admission error event: %+v", ev)
		}
	}
	mu.Unlock()

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestHandshakeQuotaRejectsOverCap: a tenant at its MaxSessions cap has
// further opens refused with the quota error (no session state spent),
// and the slot frees when the admitted session's connection ends.
func TestHandshakeQuotaRejectsOverCap(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 60)
	gate := twoTenantGate(map[string]front.Limits{"team-a": {MaxSessions: 1}})
	h := startTunedServer(t, env, dpp.Config{}, func(s *Server) { s.Gate = gate })

	client := NewClient(h.addr)
	client.AuthToken = "tok-a"
	rs, err := client.Open(context.Background(), dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		t.Fatal(err)
	}
	consumeRemote(t, rs, 1)

	if _, err := client.Open(context.Background(), dpp.Spec{Spec: alignedSpec()}); !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "over quota") {
		t.Fatalf("open over the session cap = %v, want ErrRemote over-quota", err)
	}
	if n := h.svc.Stats().SessionsOpened; n != 1 {
		t.Fatalf("service opened %d sessions, want 1 (the rejected open spent none)", n)
	}
	if st := gate.Stats(); st.QuotaRejects != 1 {
		t.Fatalf("gate QuotaRejects = %d, want 1", st.QuotaRejects)
	}

	// Another tenant is untouched by team-a's cap.
	other := NewClient(h.addr)
	other.AuthToken = "tok-b"
	rsB, err := other.Open(context.Background(), dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		t.Fatalf("team-b open while team-a is capped: %v", err)
	}
	drainRemote(t, rsB)

	// Closing the capped session frees the slot for a fresh admit.
	rs.Close()
	testutil.Eventually(t, func() bool { return gate.TenantStats("team-a").Active == 0 },
		"lease released when the session's connection ended")
	rs2, err := client.Open(context.Background(), dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		t.Fatalf("open after the slot freed: %v", err)
	}
	drainRemote(t, rs2)

	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestResumeClaimCrossTenantRejected: a parked resume token is scoped to
// the tenant that opened the session. Another tenant presenting the
// leaked token gets the *same* error as a dead token (no existence
// oracle), and the probe does not burn the entry — the owner still
// resumes afterwards.
func TestResumeClaimCrossTenantRejected(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 60)
	gate := twoTenantGate(nil)
	h := startTunedServer(t, env, dpp.Config{}, func(s *Server) { s.Gate = gate })

	owner := NewClient(h.addr)
	owner.AuthToken = "tok-a"
	conn, stop, token := openResumable(t, owner, dpp.Spec{Spec: alignedSpec()}, 1)
	stop()
	conn.Close()
	testutil.Eventually(t, func() bool { return h.srv.Stats().ParkedSessions >= 1 },
		"server parked the severed resumable session")

	ws, err := encodeSpec(dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		t.Fatal(err)
	}
	req := openRequest{
		Kind: kindSession, Window: 4, Spec: ws,
		Resumable: true, Offset: 1, Token: token,
	}
	thief := NewClient(h.addr)
	thief.AuthToken = "tok-b"
	_, _, _, _, err = thief.openStream(context.Background(), req)
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "unknown or expired resume token") {
		t.Fatalf("cross-tenant claim = %v, want the dead-token error verbatim", err)
	}

	conn1, _, stop1, _, err := owner.openStream(context.Background(), req)
	if err != nil {
		t.Fatalf("owner's claim after the cross-tenant probe: %v", err)
	}
	stop1()
	conn1.Close()
	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}
