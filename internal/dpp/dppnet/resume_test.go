package dppnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dpp"
	"repro/internal/reader"
	"repro/internal/testutil"
)

// chaosProxy relays one dppnet server over a loopback listener and cuts
// the server→client stream after a scheduled number of relayed bytes —
// the connection-loss injector for the resume suite. kills[i] is the
// byte budget of the i-th accepted connection (-1 / absent: unlimited);
// when a budget runs out the proxy closes both halves, exactly like a
// mid-stream network partition. A nonzero refuse duration makes the
// proxy accept-and-drop every new connection for that long after a kill
// (or killNow), holding the client in its backoff loop — the lever the
// TTL-expiry test uses to outlive the server's resume window.
type chaosProxy struct {
	t      *testing.T
	ln     net.Listener
	addr   string
	target string
	refuse time.Duration

	relayed atomic.Int64

	mu          sync.Mutex
	kills       []int64
	accepts     int
	conns       []net.Conn
	refuseUntil time.Time
	closed      bool

	acceptWG sync.WaitGroup
	relayWG  sync.WaitGroup
}

func startChaosProxy(t *testing.T, target string, kills []int64, refuse time.Duration) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{
		t: t, ln: ln, addr: ln.Addr().String(), target: target,
		refuse: refuse, kills: kills,
	}
	p.acceptWG.Add(1)
	go p.acceptLoop()
	t.Cleanup(p.Close)
	return p
}

func (p *chaosProxy) acceptLoop() {
	defer p.acceptWG.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		if time.Now().Before(p.refuseUntil) {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		idx := p.accepts
		p.accepts++
		limit := int64(-1)
		if idx < len(p.kills) {
			limit = p.kills[idx]
		}
		p.conns = append(p.conns, conn)
		p.mu.Unlock()

		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			up.Close()
			return
		}
		p.conns = append(p.conns, up)
		p.relayWG.Add(2)
		p.mu.Unlock()
		go func() { // client → server
			defer p.relayWG.Done()
			io.Copy(up, conn)
			up.Close()
			conn.Close()
		}()
		go func() { // server → client, budgeted
			defer p.relayWG.Done()
			if limit < 0 {
				n, _ := io.Copy(conn, up)
				p.relayed.Add(n)
			} else {
				n, _ := io.CopyN(conn, up, limit)
				p.relayed.Add(n)
				p.startRefuse()
			}
			up.Close()
			conn.Close()
		}()
	}
}

func (p *chaosProxy) startRefuse() {
	if p.refuse <= 0 {
		return
	}
	p.mu.Lock()
	p.refuseUntil = time.Now().Add(p.refuse)
	p.mu.Unlock()
}

// killNow severs every live relayed connection immediately and, with a
// refuse window configured, starts it — a deterministic alternative to
// byte-budget kills when a test wants to cut after exactly k consumed
// batches.
func (p *chaosProxy) killNow() {
	p.startRefuse()
	p.mu.Lock()
	conns := append([]net.Conn(nil), p.conns...)
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

func (p *chaosProxy) relayedBytes() int64 { return p.relayed.Load() }

func (p *chaosProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	conns := append([]net.Conn(nil), p.conns...)
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	p.acceptWG.Wait()
	p.relayWG.Wait()
}

// startTunedServer is startServer with a pre-Serve hook, for tests that
// must set Server knobs (ResumeTTL, Tablez) before any connection can
// race them.
func startTunedServer(t testing.TB, env *testEnv, cfg dpp.Config, tune func(*Server)) *harness {
	t.Helper()
	cfg.Backend = env.store
	cfg.Catalog = env.catalog
	svc, err := dpp.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
	if tune != nil {
		tune(srv)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	h := &harness{svc: svc, srv: srv, addr: ln.Addr().String()}
	t.Cleanup(func() {
		h.shutdown(t)
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return h
}

func mustEqualBatches(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream produced %d batches, reference %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("batch %d differs from the uninterrupted reference", i)
		}
	}
}

// consumeRemote pulls exactly k batches (encoded) without closing.
func consumeRemote(t *testing.T, rs *RemoteSession, k int) [][]byte {
	t.Helper()
	var enc [][]byte
	for i := 0; i < k; i++ {
		b, err := rs.Next(context.Background())
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := b.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		enc = append(enc, buf.Bytes())
	}
	return enc
}

// drainRemoteUnits pulls a remote unit session dry, returning each piece
// in its wire encoding — a batch's, or a closing record's with the
// cache-hit flag normalized (Hit is cache-state-dependent and excluded from
// the determinism contract, exactly as the chain hash skips it) — and how
// many times the stream resumed over a new connection from inside a file:
// some of its pieces consumed, its closing record not.
func drainRemoteUnits(t *testing.T, rus *RemoteUnitSession) (enc [][]byte, midFile int) {
	t.Helper()
	defer rus.Close()
	inFile := false
	for {
		before := rus.Reconnects()
		p, err := rus.NextPiece(context.Background())
		if inFile && rus.Reconnects() > before {
			midFile++
		}
		if err == io.EOF {
			return enc, midFile
		}
		if err != nil {
			t.Fatal(err)
		}
		inFile = p.Batch != nil
		var buf bytes.Buffer
		if p.Batch != nil {
			err = p.Batch.Encode(&buf)
		} else {
			p.Hit = false
			err = encodeFileUnit(&buf, p)
		}
		if err != nil {
			t.Fatal(err)
		}
		enc = append(enc, buf.Bytes())
	}
}

// TestChaosReconnectDeterminism is the resume contract's pin (referenced
// by docs/ARCHITECTURE.md): for aligned, misaligned, and ShareScans
// specs, a session whose connection is severed at seeded byte offsets —
// one to three times per run — must deliver exactly the byte stream of
// an uninterrupted session, resuming via token (parked live state) with
// every resumed frame verified against the rolling chain hash. A unit
// stream is held to the same on both continuations — by token, and, against
// a server that parks nothing, by offset replay — with cuts that land inside
// a file: some of its batch frames consumed, its closing record not. Each
// seeded schedule runs against a fresh server and must tear down with
// zero goroutine residue.
func TestChaosReconnectDeterminism(t *testing.T) {
	env := newTestEnv(t, 60)
	cases := []struct {
		name   string
		spec   reader.Spec
		share  bool
		units  bool
		replay bool
	}{
		{name: "aligned", spec: alignedSpec()},
		{name: "misaligned", spec: misalignedSpec()},
		{name: "sharescans", spec: alignedSpec(), share: true},
		{name: "units", spec: alignedSpec(), units: true},
		{name: "units-replay", spec: alignedSpec(), units: true, replay: true},
	}
	const seedsPerCase = 7
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := dpp.Spec{Spec: tc.spec, ShareScans: tc.share}
			if tc.units {
				spec.Files = allFiles(t, env)
			}
			// run drains one session of the case's kind: its stream, how often
			// it reconnected, and how many of those times from inside a file.
			run := func(t *testing.T, c *Client) (enc [][]byte, reconnects int64, midFile int) {
				if tc.units {
					rus, err := c.OpenUnits(context.Background(), spec)
					if err != nil {
						t.Fatal(err)
					}
					enc, midFile = drainRemoteUnits(t, rus)
					return enc, rus.Reconnects(), midFile
				}
				rs, err := c.Open(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				return drainRemote(t, rs), rs.Reconnects(), 0
			}

			// Uninterrupted reference, streamed through a pass-through
			// proxy so its relayed byte total sizes the kill schedules.
			refH := startServer(t, env, dpp.Config{})
			refP := startChaosProxy(t, refH.addr, nil, 0)
			want, _, _ := run(t, NewClient(refP.addr))
			refP.Close()
			refH.shutdown(t)
			total := refP.relayedBytes()
			if total < 1024 {
				t.Fatalf("reference stream relayed only %d bytes; kill schedules need room", total)
			}

			cutsInsideFiles, replays := 0, int64(0)
			for seed := int64(0); seed < seedsPerCase; seed++ {
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					before := runtime.NumGoroutine()
					rng := rand.New(rand.NewSource(1000 + seed))
					kills := make([]int64, 1+rng.Intn(3))
					for i := range kills {
						// Past the handshake's ok frame, short of the
						// stats/EOF tail: every first cut forces a resume.
						kills[i] = 128 + rng.Int63n(total-384)
					}
					h := startTunedServer(t, env, dpp.Config{}, func(s *Server) {
						if tc.replay {
							s.ResumeMax = -1 // nothing parks: every token is refused
						}
					})
					p := startChaosProxy(t, h.addr, kills, 0)
					client := NewClient(p.addr)
					client.Resume = ResumePolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond}
					got, reconnects, midFile := run(t, client)
					if reconnects < 1 {
						t.Fatalf("kills %v (reference total %d) never severed the stream", kills, total)
					}
					cutsInsideFiles += midFile
					mustEqualBatches(t, got, want)
					st := h.srv.Stats()
					if tc.replay {
						// A cut before the first piece is consumed continues from
						// offset 0, which is an open, not a replay.
						replays += st.ReplayedSessions
						if st.ResumedSessions != 0 || st.ParkedSessions != 0 {
							t.Fatalf("server stats %+v: want no parked and no token-resumed session", st)
						}
					} else if st.ResumedSessions < 1 || st.ParkedSessions < 1 {
						t.Fatalf("server stats %+v: want parked and resumed sessions", st)
					}
					p.Close()
					h.shutdown(t)
					testutil.WaitForGoroutines(t, before)
				})
			}
			if tc.units && cutsInsideFiles == 0 {
				t.Fatalf("no kill of %d schedules landed inside a file", seedsPerCase)
			}
			if tc.replay && replays == 0 {
				t.Fatalf("no stream of %d schedules continued by offset replay", seedsPerCase)
			}
		})
	}
}

// TestChaosReconnectUnitSession: the same severed-connection contract
// for file-unit streams (the fleet shard transport) — seeded kills, a
// token resume, chain-hash-verified continuation, and a unit stream
// identical to an uninterrupted session's modulo the cache-hit flag.
func TestChaosReconnectUnitSession(t *testing.T) {
	env := newTestEnv(t, 160)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("test table landed only %d files; kills need a mid-stream target", len(files))
	}
	spec := dpp.Spec{Spec: alignedSpec(), Files: files, Readers: 2, Buffer: 2}

	refH := startServer(t, env, dpp.Config{})
	refP := startChaosProxy(t, refH.addr, nil, 0)
	refRUS, err := NewClient(refP.addr).OpenUnits(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := drainRemoteUnits(t, refRUS)
	refP.Close()
	refH.shutdown(t)
	total := refP.relayedBytes()
	if total < 1024 {
		t.Fatalf("reference unit stream relayed only %d bytes", total)
	}

	for seed := int64(0); seed < 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			before := runtime.NumGoroutine()
			rng := rand.New(rand.NewSource(7000 + seed))
			kills := make([]int64, 1+rng.Intn(2))
			for i := range kills {
				kills[i] = 128 + rng.Int63n(total-384)
			}
			h := startServer(t, env, dpp.Config{})
			p := startChaosProxy(t, h.addr, kills, 0)
			client := NewClient(p.addr)
			client.Resume = ResumePolicy{MaxAttempts: 10, BaseDelay: 5 * time.Millisecond}
			rus, err := client.OpenUnits(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := drainRemoteUnits(t, rus)
			if rus.Reconnects() < 1 {
				t.Fatalf("kills %v (reference total %d) never severed the unit stream", kills, total)
			}
			if len(got) != len(want) {
				t.Fatalf("unit stream produced %d pieces, reference %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("piece %d differs from the uninterrupted reference", i)
				}
			}
			p.Close()
			h.shutdown(t)
			testutil.WaitForGoroutines(t, before)
		})
	}
}

// TestResumeTTLExpiryFallsBackToReplay: when the parked state's TTL
// lapses before the client gets back in (the proxy refuses new
// connections for longer than the TTL), the token claim is refused and
// the client falls back to a token-less offset replay — the server
// re-pulls and discards the already-delivered prefix, counts it in
// ReplayedBatches, and the stream completes byte-identical anyway.
func TestResumeTTLExpiryFallsBackToReplay(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 60)
	spec := dpp.Spec{Spec: alignedSpec(), Readers: 1, Buffer: 2}

	refH := startServer(t, env, dpp.Config{})
	refRS, err := NewClient(refH.addr).Open(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := drainRemote(t, refRS)
	refH.shutdown(t)

	h := startTunedServer(t, env, dpp.Config{}, func(s *Server) {
		s.ResumeTTL = 20 * time.Millisecond
	})
	p := startChaosProxy(t, h.addr, nil, 300*time.Millisecond)
	client := NewClient(p.addr)
	client.Resume = ResumePolicy{MaxAttempts: 10}
	rs, err := client.Open(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := consumeRemote(t, rs, 3)
	p.killNow()
	got = append(got, drainRemote(t, rs)...)

	if rs.Reconnects() < 1 {
		t.Fatal("stream completed without reconnecting")
	}
	mustEqualBatches(t, got, want)
	st := h.srv.Stats()
	if st.ResumeExpired < 1 {
		t.Fatalf("server stats %+v: parked entry should have expired under the 20ms TTL", st)
	}
	if st.ReplayedBatches < 3 {
		t.Fatalf("server stats %+v: want >= 3 replayed batches (offset-replay fallback)", st)
	}
	if st.ReplayedSessions < 1 {
		t.Fatalf("server stats %+v: the fallback handshake counts as an offset replay", st)
	}
	if st.ResumedSessions != 0 {
		t.Fatalf("server stats %+v: no token claim succeeded, so the token-resume counter must stay zero", st)
	}
	p.Close()
	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// openResumable opens a resumable session the way a client under a Resume
// policy does — a raw handshake with the resumable bit — minus the policy's
// redial, so that the test plays the reconnect by hand. It reads the first
// consume frames without confirming any, and returns the connection, the
// release of its context watcher, and the token the ok reply carried.
func openResumable(t *testing.T, c *Client, spec dpp.Spec, consume int) (net.Conn, func(), string) {
	t.Helper()
	ws, err := encodeSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	conn, br, stop, token, err := c.openStream(context.Background(), openRequest{
		Kind: kindSession, Window: 4, Spec: ws, Resumable: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if token == "" {
		t.Fatal("resumable handshake returned no token")
	}
	for i := 0; i < consume; i++ {
		if typ, _, err := readFrame(br, maxFrameBytes); err != nil || typ != frameBatch {
			t.Fatalf("frame %d of the resumable session = type %#x, %v", i, typ, err)
		}
	}
	return conn, stop, token
}

// TestResumeFingerprintMismatchRejected: a resume handshake presenting a
// live token but a spec whose fingerprint differs from the parked
// session's must be refused — resuming someone else's stream shape is a
// protocol error, not a silent re-open.
func TestResumeFingerprintMismatchRejected(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	client := NewClient(h.addr)

	conn, stop, token := openResumable(t, client, dpp.Spec{Spec: alignedSpec()}, 1)
	stop()
	conn.Close()
	testutil.Eventually(t, func() bool { return h.srv.Stats().ParkedSessions >= 1 },
		"server parked the severed resumable session")

	ws, err := encodeSpec(dpp.Spec{Spec: misalignedSpec()})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, _, err = client.openStream(context.Background(), openRequest{
		Kind: kindSession, Window: 4, Spec: ws,
		Resumable: true, Offset: 1, Token: token,
	})
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched-spec resume = %v, want ErrRemote about the spec fingerprint", err)
	}
	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestResumeTokenSingleClaim: a parked session's token is single-claim —
// while one reconnect holds it, a second handshake presenting the same
// token must be refused instead of splicing two consumers into one
// stream.
func TestResumeTokenSingleClaim(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	client := NewClient(h.addr)

	conn, stop, token := openResumable(t, client, dpp.Spec{Spec: alignedSpec()}, 0)
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
		Resumable: true, Offset: 0, Token: token,
	}
	conn1, _, stop1, _, err := client.openStream(context.Background(), req)
	if err != nil {
		t.Fatalf("first token claim: %v", err)
	}
	_, _, _, _, err = client.openStream(context.Background(), req)
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "already in use") {
		t.Fatalf("second claim of a held token = %v, want ErrRemote already-in-use", err)
	}
	stop1()
	conn1.Close()
	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestResumeClaimBeforePark: a client can redial before the server has
// noticed that its old connection is dead. The token it presents is
// issued but not parked; the claim must sever the old connection, wait
// for its handler to park, and resume — not answer "unknown" and push
// the client onto a full offset replay.
func TestResumeClaimBeforePark(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 60)
	h := startServer(t, env, dpp.Config{})
	client := NewClient(h.addr)

	old, oldStop, token := openResumable(t, client, dpp.Spec{Spec: alignedSpec()}, 1)
	ws, err := encodeSpec(dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		t.Fatal(err)
	}
	// The old connection is still open and healthy as far as the server
	// can tell: nothing has parked.
	if st := h.srv.Stats(); st.ParkedSessions != 0 {
		t.Fatalf("server stats %+v: nothing should have parked yet", st)
	}
	conn, _, stop, _, err := client.openStream(context.Background(), openRequest{
		Kind: kindSession, Window: 4, Spec: ws,
		Resumable: true, Offset: 1, Token: token,
	})
	if err != nil {
		t.Fatalf("claim of an issued, not yet parked token: %v", err)
	}
	if st := h.srv.Stats(); st.ParkedSessions != 1 || st.ResumedSessions != 1 || st.ReplayedSessions != 0 {
		t.Fatalf("server stats %+v: want the old connection parked and the claim resumed by token", st)
	}
	// Another tenant's probe of a live token must read as unknown, and
	// must not sever anything — there is no gate here, so forge the tenant.
	if _, err := h.srv.claimResume(token, "other", false, "", 0, 0); err == nil ||
		!strings.Contains(err.Error(), "unknown or expired") {
		t.Fatalf("cross-tenant claim = %v, want the unknown-token error", err)
	}
	stop()
	conn.Close()
	oldStop()
	old.Close()
	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestResumeOffsetBeyondEOFRejected: a token-less replay handshake whose
// offset lies past the stream's end must come back as a remote error
// after the server replays to EOF, and a negative offset must be
// rejected at decode time — neither can open a session.
func TestResumeOffsetBeyondEOFRejected(t *testing.T) {
	before := runtime.NumGoroutine()
	env := newTestEnv(t, 10)
	h := startServer(t, env, dpp.Config{})
	client := NewClient(h.addr)
	ws, err := encodeSpec(dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		t.Fatal(err)
	}

	_, _, _, _, err = client.openStream(context.Background(), openRequest{
		Kind: kindSession, Window: 4, Spec: ws, Resumable: true, Offset: 1 << 30,
	})
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "beyond end of stream") {
		t.Fatalf("replay past EOF = %v, want ErrRemote beyond-end-of-stream", err)
	}

	conn := rawDial(t, h.addr)
	defer conn.Close()
	conn.Write(append([]byte(protoMagic), protoVersion))
	payload, _ := json.Marshal(openRequest{Kind: kindSession, Window: 4, Spec: ws, Offset: -3})
	writeFrame(conn, frameOpen, payload)
	br := bufio.NewReader(conn)
	typ, reply, err := readFrame(br, maxFrameBytes)
	if err != nil {
		t.Fatalf("reading reply to negative offset: %v", err)
	}
	if typ != frameError || len(reply) == 0 {
		t.Fatalf("negative offset answered frame %#x %q, want an error frame", typ, reply)
	}

	testutil.Eventually(t, func() bool { return h.svc.Stats().ActiveSessions == 0 },
		"rejected resumes released their session slots")
	h.shutdown(t)
	testutil.WaitForGoroutines(t, before)
}

// TestTablezServedAndUnserved: a server with Tablez set answers the
// tablez handshake with its table metadata — round-tripped through the
// wire codec — and a server without one refuses it with a remote error.
func TestTablezServedAndUnserved(t *testing.T) {
	env := newTestEnv(t, 10)
	files, err := env.catalog.AllFiles("tbl")
	if err != nil {
		t.Fatal(err)
	}
	meta := &TableMeta{
		Table:      "tbl",
		DenseWidth: 4,
		TrainRows:  len(env.samples),
		S:          5.5,
		Spec:       dpp.Spec{Spec: alignedSpec(), ShareScans: true},
		Partitions: []TablePartition{{Hour: 0, Files: files}},
	}
	h := startTunedServer(t, env, dpp.Config{}, func(s *Server) { s.Tablez = meta })
	got, err := NewClient(h.addr).Tablez(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Table != meta.Table || got.DenseWidth != meta.DenseWidth ||
		got.TrainRows != meta.TrainRows || got.S != meta.S || !got.Spec.ShareScans {
		t.Fatalf("served metadata %+v, want %+v", got, meta)
	}
	if got.Spec.Fingerprint() != meta.Spec.Fingerprint() {
		t.Fatalf("served spec fingerprint %q, want %q", got.Spec.Fingerprint(), meta.Spec.Fingerprint())
	}
	if gf := got.Files(0); len(gf) != len(files) {
		t.Fatalf("served partition has %d files, want %d", len(gf), len(files))
	}
	if got.Files(99) != nil {
		t.Fatal("absent partition hour returned a file list")
	}

	bare := startServer(t, env, dpp.Config{})
	_, err = NewClient(bare.addr).Tablez(context.Background())
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "no table metadata") {
		t.Fatalf("tablez against a bare server = %v, want ErrRemote no-table-metadata", err)
	}
}

// TestStreamHashMismatchFails is the hash contract's pin (referenced by
// docs/ARCHITECTURE.md): a batch frame whose stamped chain hash does not
// match the client's locally recomputed one must fail the stream loudly
// — a spliced or corrupted resume can never be consumed silently.
func TestStreamHashMismatchFails(t *testing.T) {
	before := runtime.NumGoroutine()
	body := []byte("not a real batch; the hash check runs before decode")
	addr, done := fakeServer(t, func(conn net.Conn) {
		bad := chainStep(chainSeed, body) ^ 1
		writeFrame(conn, frameBatch, encodeBatchFrame(0, bad, body))
	})
	rs, err := NewClient(addr).Open(context.Background(), dpp.Spec{Spec: alignedSpec()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rs.Next(context.Background())
	if err == nil || !strings.Contains(err.Error(), "stream hash mismatch") {
		t.Fatalf("Next on a mis-stamped frame = %v, want a stream hash mismatch", err)
	}
	rs.Close()
	<-done
	testutil.WaitForGoroutines(t, before)
}
